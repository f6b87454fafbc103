// host_colocation: the paper's single host at production container counts.
//
// One 20-CPU / 128 GiB host holds ~140 view-enabled containers:
//   * job slots that relaunch as soon as their job ends (closed loop):
//     DaCapo JVMs with the adaptive JVM (JvmKind::kAdaptive) and NPB teams
//     with libgomp's dynamic team sizing (TeamStrategy::kDynamic);
//   * CPU hogs with random budgets and idle gaps, so host slack swings;
//   * memory hogs that charge tens of GiB and let go again, so global
//     pressure wakes kswapd;
//   * idle sidecars, which only carry a resource view the monitor updates.
// Every 100 ms of simulated time an operator issues `docker update` writes of
// cpu.shares and memory.limit_in_bytes through the sysfs, and a probe round
// reads sysconf, /proc/cpuinfo, /proc/meminfo, cpu/online and knob files as
// the containers' processes would. The benchmark drives Engine::step()
// itself. The timed phase is the launch window; after it no job is
// relaunched, and the untimed drain runs until every job is terminal. Jobs
// still running at the drain limit are stopped and count as having missed
// their deadline.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/container/container.h"
#include "src/container/host.h"
#include "src/jvm/jvm.h"
#include "src/omp/omp_runtime.h"
#include "src/util/rng.h"
#include "src/util/str.h"
#include "src/workloads/hogs.h"
#include "src/workloads/java_suites.h"
#include "src/workloads/npb.h"

namespace arv::perfbench {
namespace {

using namespace arv::units;

constexpr int kJvmSlots = 40;
constexpr int kOmpSlots = 24;
constexpr int kCpuHogs = 8;
constexpr int kMemHogs = 5;
constexpr int kSidecars = 64;
constexpr SimDuration kLaunchWindow = 30 * sec;
constexpr SimDuration kDrainLimit = 60 * sec;  ///< after the launch window
constexpr SimDuration kOperatorEvery = 100 * msec;
constexpr int kWritesPerRound = 2;
constexpr int kProbesPerRound = 6;
/// Job sizes are scaled down from the suites so that each slot runs
/// several jobs inside the launch window.
constexpr double kJvmWorkScale = 0.0625;
constexpr int kOmpRegionDivisor = 20;
/// Range of the seeded per-slot offset into the job suites.
constexpr std::int64_t kRotations = 1000;

/// Sums of a stopped container's resource-view update counters (the
/// namespace disappears with the container).
struct ViewCounts {
  std::uint64_t cpu_updates = 0;
  std::uint64_t mem_updates = 0;

  void add(const container::Container& container) {
    if (const auto view = container.resource_view()) {
      cpu_updates += view->cpu_updates();
      mem_updates += view->mem_updates();
    }
  }
};

class Colocation {
 public:
  Colocation(std::uint64_t seed, Tracer* tracer)
      : host_(host_config()), runtime_(host_), rng_(seed), tracer_(tracer) {
    step_span_ = span("host.step");
    read_span_ = span("vfs.read");
    write_span_ = span("vfs.write");
    create_span_ = span("container.create");
    stop_span_ = span("container.stop");
    for (int i = 0; i < kSidecars; ++i) {
      container::ContainerConfig config;
      config.name = strf("side-%d", i);
      config.cpu_shares = 256;
      config.mem_limit = 512 * MiB;
      sidecars_.push_back(&create(config));
    }
    // Each slot cycles through its suite from a seeded starting point, so
    // every episode runs a balanced mix and the seed shifts its phase.
    jobs_.resize(kJvmSlots + kOmpSlots);
    for (std::size_t slot = 0; slot < jobs_.size(); ++slot) {
      jobs_[slot].jvm_slot = slot < kJvmSlots;
      jobs_[slot].rotation =
          static_cast<std::size_t>(rng_.uniform_int(0, kRotations));
      launch(slot);
    }
    cpu_hogs_.resize(kCpuHogs);
    for (int i = 0; i < kCpuHogs; ++i) {
      container::ContainerConfig config;
      config.name = strf("cpuhog-%d", i);
      cpu_hogs_[static_cast<std::size_t>(i)].container = &create(config);
      cpu_hogs_[static_cast<std::size_t>(i)].next_start = i * 500 * msec;
    }
    mem_hogs_.resize(kMemHogs);
    for (int i = 0; i < kMemHogs; ++i) {
      mem_hogs_[static_cast<std::size_t>(i)].next_start = 2 * sec + i * 4 * sec;
    }
  }
  Colocation(const Colocation&) = delete;
  Colocation& operator=(const Colocation&) = delete;

  /// The timed phase: the launch window, every job slot relaunching.
  void run_launch_window(EpisodeResult& result) {
    cache_hits_before_ = host_.sysfs().host_fs().render_cache_hits();
    SegmentClock clock(result.segment_ns);
    while (host_.now() < kLaunchWindow) {
      step(/*launching=*/true);
      clock.lap(host_.now());
    }
    result.timed_wall_s = clock.elapsed_s();
    result.sim_s = static_cast<double>(kLaunchWindow) / static_cast<double>(sec);
  }

  /// After the timed phase: no relaunches; runs until every job is terminal,
  /// stopping the ones still running at the drain limit.
  void drain() {
    while (active_jobs_ > 0) {
      step(/*launching=*/false);
    }
  }

  void report(EpisodeResult& result) {
    const std::uint64_t terminal = completed_ + oom_ + killed_ + missed_;
    check(result, launched_ == terminal,
          strf("%llu jobs launched but %llu reached a terminal state",
               static_cast<unsigned long long>(launched_),
               static_cast<unsigned long long>(terminal)));
    check(result, active_jobs_ == 0, "a job is still running");
    check(result, !runtimes_us_.empty(), "no job completed");

    const double sim_total_s =
        static_cast<double>(host_.now()) / static_cast<double>(sec);
    result.ops = launched_ + reads_ + writes_;
    result.call_errors = call_errors_;
    result.ops_failed = oom_ + killed_ + missed_ + call_errors_;

    std::int64_t runtime_sum = 0;
    for (const std::int64_t us : runtimes_us_) {
      runtime_sum += us;
    }
    const double completions = static_cast<double>(runtimes_us_.size());
    put(result.outcome, "sim_app_runtime_s",
        static_cast<double>(runtime_sum) / completions / 1e6, "sim-s", true);
    put(result.outcome, "sim_goodput_rps", completions / sim_total_s, "1/sim-s",
        true);
    put(result.outcome, "sim_p99_ms", percentile(runtimes_us_, 99) / 1e3,
        "sim-ms", true);

    ViewCounts views = stopped_views_;
    for (const auto& ns : host_.monitor().views()) {
      views.cpu_updates += ns->cpu_updates();
      views.mem_updates += ns->mem_updates();
    }
    auto& layers = result.layers;
    put(layers, "core.monitor.update_rounds",
        static_cast<double>(host_.monitor().update_rounds()), "count", true);
    put(layers, "core.ns.cpu_updates", static_cast<double>(views.cpu_updates),
        "count", true);
    put(layers, "core.ns.mem_updates", static_cast<double>(views.mem_updates),
        "count", true);
    put(layers, "mem.kswapd_wakeups",
        static_cast<double>(host_.memory().kswapd_wakeups()), "count", true);
    put(layers, "mem.direct_reclaims",
        static_cast<double>(host_.memory().direct_reclaims()), "count", true);
    put(layers, "mem.oom_kills", static_cast<double>(host_.memory().oom_kills()),
        "count", true);
    put(layers, "jvm.gc_time_s", static_cast<double>(gc_time_us_) / 1e6,
        "sim-s", true);
    put(layers, "jvm.jobs_completed", static_cast<double>(jvm_completed_),
        "count", true);
    put(layers, "omp.jobs_completed", static_cast<double>(omp_completed_),
        "count", true);
    put(layers, "vfs.reads", static_cast<double>(reads_), "count", false);
    put(layers, "vfs.writes", static_cast<double>(writes_), "count", false);
    put(layers, "vfs.render_cache_hit_ratio",
        static_cast<double>(host_.sysfs().host_fs().render_cache_hits() -
                            cache_hits_before_) /
            static_cast<double>(reads_),
        "ratio", false);

    if (tracer_ == nullptr) {
      return;
    }
    const std::map<std::string, SpanTotals> totals = tracer_->totals();
    const auto p_us = [&](const std::string& name, double p) {
      return span_percentile_us(totals, name, p);
    };
    put(layers, "host.step_us_p50", p_us("host.step", 50), "us", false);
    put(layers, "host.step_us_p99", p_us("host.step", 99), "us", false);
    put(layers, "vfs.read_us_p50", p_us("vfs.read", 50), "us", false);
    put(layers, "vfs.write_us_p50", p_us("vfs.write", 50), "us", false);
    put(layers, "container.create_us_p50", p_us("container.create", 50), "us",
        false);
    put(layers, "container.stop_us_p50", p_us("container.stop", 50), "us",
        false);
  }

 private:
  struct Job {
    bool jvm_slot = true;
    bool active = false;
    std::size_t rotation = 0;    ///< seeded offset into the slot's suite
    std::size_t generation = 0;  ///< jobs launched in this slot so far
    container::Container* container = nullptr;
    std::unique_ptr<jvm::Jvm> jvm;
    std::unique_ptr<omp::OmpProcess> omp;
  };
  struct CpuHogSlot {
    container::Container* container = nullptr;
    std::unique_ptr<workloads::CpuHog> hog;
    SimTime next_start = 0;
  };
  struct MemHogSlot {
    container::Container* container = nullptr;
    std::unique_ptr<workloads::MemHog> hog;
    int generation = 0;
    SimTime next_start = 0;
    SimTime stop_at = 0;
  };

  static container::HostConfig host_config() {
    container::HostConfig config;
    config.cpus = 20;
    config.ram = 128 * GiB;
    return config;
  }

  int span(const std::string& name) {
    return tracer_ == nullptr ? -1 : tracer_->intern(name);
  }

  container::Container& create(const container::ContainerConfig& config) {
    Tracer::Scope scope(tracer_, create_span_);
    return runtime_.run(config);
  }

  void stop(container::Container& container) {
    stopped_views_.add(container);
    Tracer::Scope scope(tracer_, stop_span_);
    container.stop();
  }

  void step(bool launching) {
    {
      Tracer::Scope scope(tracer_, step_span_);
      host_.engine().step();
    }
    const SimTime now = host_.now();
    for (std::size_t slot = 0; slot < jobs_.size(); ++slot) {
      Job& job = jobs_[slot];
      if (!job.active) {
        continue;
      }
      if (job_finished(job)) {
        finish(job, /*missed=*/false);
        if (launching) {
          launch(slot);
        }
      } else if (now >= kLaunchWindow + kDrainLimit) {
        finish(job, /*missed=*/true);
      }
    }
    if (launching) {
      manage_hogs(now);
    }
    if (now % kOperatorEvery == 0) {
      operator_round();
    }
  }

  void launch(std::size_t slot) {
    Job& job = jobs_[slot];
    const std::size_t pick = job.rotation + job.generation;
    container::ContainerConfig config;
    config.name = strf("%s-%zu-%zu", job.jvm_slot ? "jvm" : "omp", slot,
                       job.generation++);
    config.mem_limit = 4 * GiB;
    job.container = &create(config);
    if (job.jvm_slot) {
      jvm::JavaWorkload workload = dacapo_[pick % dacapo_.size()];
      workload.total_work = static_cast<SimDuration>(
          static_cast<double>(workload.total_work) * kJvmWorkScale);
      jvm::JvmFlags flags;
      flags.kind = jvm::JvmKind::kAdaptive;
      flags.xmx = 3 * jvm::min_heap_of(workload);
      job.jvm = std::make_unique<jvm::Jvm>(host_, *job.container, flags,
                                           workload);
    } else {
      omp::OmpWorkload workload = npb_[pick % npb_.size()];
      workload.regions = std::max(1, workload.regions / kOmpRegionDivisor);
      job.omp = std::make_unique<omp::OmpProcess>(
          host_, *job.container, omp::TeamStrategy::kDynamic, workload);
    }
    job.active = true;
    ++launched_;
    ++active_jobs_;
  }

  static bool job_finished(const Job& job) {
    return job.jvm != nullptr ? job.jvm->finished() : job.omp->finished();
  }

  void finish(Job& job, bool missed) {
    if (missed) {
      ++missed_;
    } else if (job.jvm != nullptr) {
      const jvm::JvmStats& stats = job.jvm->stats();
      gc_time_us_ += stats.gc_time();
      if (stats.completed) {
        ++completed_;
        ++jvm_completed_;
        runtimes_us_.push_back(stats.exec_time());
      } else if (stats.killed) {
        ++killed_;
      } else {
        ++oom_;
      }
    } else {
      ++completed_;
      ++omp_completed_;
      runtimes_us_.push_back(job.omp->stats().exec_time());
    }
    job.jvm.reset();
    job.omp.reset();
    stop(*job.container);
    job.container = nullptr;
    job.active = false;
    --active_jobs_;
  }

  /// CPU hogs burn a random budget, idle for a random gap, and start over;
  /// memory hogs charge up to a large footprint, hold it, and release it.
  void manage_hogs(SimTime now) {
    for (CpuHogSlot& slot : cpu_hogs_) {
      if (slot.hog != nullptr && slot.hog->finished()) {
        slot.hog.reset();
        slot.next_start = now + rng_.uniform_int(1000, 3000) * msec;
      }
      if (slot.hog == nullptr && now >= slot.next_start) {
        slot.hog = std::make_unique<workloads::CpuHog>(
            host_, *slot.container,
            static_cast<int>(rng_.uniform_int(2, 6)),
            rng_.uniform_int(2000, 6000) * msec);
      }
    }
    for (std::size_t i = 0; i < mem_hogs_.size(); ++i) {
      MemHogSlot& slot = mem_hogs_[i];
      if (slot.hog != nullptr && now >= slot.stop_at) {
        slot.hog.reset();
        stop(*slot.container);
        slot.container = nullptr;
        slot.next_start = now + rng_.uniform_int(1000, 3000) * msec;
      }
      if (slot.hog == nullptr && now >= slot.next_start) {
        container::ContainerConfig config;
        config.name = strf("memhog-%zu-%d", i, slot.generation++);
        config.cpu_shares = 4096;  // enough CPU to charge at full speed
        config.mem_soft_limit = 4 * GiB;
        slot.container = &create(config);
        slot.hog = std::make_unique<workloads::MemHog>(
            host_, *slot.container, rng_.uniform_int(36, 44) * GiB, 8 * GiB);
        slot.stop_at = now + rng_.uniform_int(6000, 10000) * msec;
      }
    }
  }

  /// `docker update` writes on the next job containers, then a probe round
  /// over the next containers (jobs and sidecars alike).
  void operator_round() {
    for (int i = 0; i < kWritesPerRound; ++i) {
      const Job& job = jobs_[write_cursor_++ % jobs_.size()];
      if (!job.active) {
        continue;
      }
      const std::string& name = job.container->name();
      write("/sys/fs/cgroup/cpu/" + name + "/cpu.shares",
            std::to_string(512 * rng_.uniform_int(1, 4)));
      write("/sys/fs/cgroup/memory/" + name + "/memory.limit_in_bytes",
            std::to_string(rng_.uniform_int(3, 6) * GiB));
    }
    const std::size_t targets = jobs_.size() + sidecars_.size();
    for (int i = 0; i < kProbesPerRound; ++i) {
      const std::size_t pick = probe_cursor_++ % targets;
      const container::Container* container =
          pick < jobs_.size() ? jobs_[pick].container
                              : sidecars_[pick - jobs_.size()];
      if (container == nullptr) {
        continue;
      }
      const proc::Pid pid = container->init_pid();
      const std::string& name = container->name();
      {
        Tracer::Scope scope(tracer_, read_span_);
        const long cpus =
            host_.sysfs().sysconf(pid, vfs::Sysconf::kNProcessorsOnln);
        call_errors_ += cpus > 0 ? 0 : 1;
      }
      ++reads_;
      read(pid, "/proc/cpuinfo");
      read(pid, "/proc/meminfo");
      read(pid, "/sys/devices/system/cpu/online");
      read(proc::kHostInit, "/sys/fs/cgroup/cpu/" + name + "/cpu.shares");
      read(proc::kHostInit,
           "/sys/fs/cgroup/memory/" + name + "/memory.limit_in_bytes");
    }
  }

  void read(proc::Pid pid, const std::string& path) {
    bool ok = false;
    {
      Tracer::Scope scope(tracer_, read_span_);
      ok = host_.sysfs().read(pid, path).has_value();
    }
    ++reads_;
    call_errors_ += ok ? 0 : 1;
  }

  void write(const std::string& path, const std::string& value) {
    bool ok = false;
    {
      Tracer::Scope scope(tracer_, write_span_);
      ok = host_.sysfs().write(path, value);
    }
    ++writes_;
    call_errors_ += ok ? 0 : 1;
  }

  container::Host host_;
  container::ContainerRuntime runtime_;
  Rng rng_;
  const std::vector<jvm::JavaWorkload> dacapo_ = workloads::dacapo_suite();
  const std::vector<omp::OmpWorkload> npb_ = workloads::npb_suite();
  Tracer* tracer_;
  std::vector<Job> jobs_;
  std::vector<container::Container*> sidecars_;
  std::vector<CpuHogSlot> cpu_hogs_;
  std::vector<MemHogSlot> mem_hogs_;
  ViewCounts stopped_views_;
  std::vector<std::int64_t> runtimes_us_;
  std::int64_t gc_time_us_ = 0;
  std::uint64_t launched_ = 0;
  std::uint64_t active_jobs_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t jvm_completed_ = 0;
  std::uint64_t omp_completed_ = 0;
  std::uint64_t oom_ = 0;
  std::uint64_t killed_ = 0;
  std::uint64_t missed_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t call_errors_ = 0;
  std::uint64_t cache_hits_before_ = 0;
  std::size_t write_cursor_ = 0;
  std::size_t probe_cursor_ = 0;
  int step_span_ = -1;
  int read_span_ = -1;
  int write_span_ = -1;
  int create_span_ = -1;
  int stop_span_ = -1;
};

}  // namespace

EpisodeResult run_host_colocation(std::uint64_t seed, Tracer* tracer) {
  EpisodeResult result;
  const std::int64_t setup_start = now_ns();
  Colocation colocation(seed, tracer);
  result.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  colocation.run_launch_window(result);
  colocation.drain();
  colocation.report(result);
  return result;
}

}  // namespace arv::perfbench
