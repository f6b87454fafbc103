#include "src/vfs/virtual_sysfs.h"

#include <charconv>
#include <cstdlib>
#include <utility>

#include "src/util/assert.h"
#include "src/util/str.h"
#include "src/util/cpuset.h"

namespace arv::vfs {
namespace {

constexpr const char* kCpuOnlinePath = "/sys/devices/system/cpu/online";
constexpr const char* kMeminfoPath = "/proc/meminfo";
constexpr const char* kLoadavgPath = "/proc/loadavg";
constexpr const char* kCpuinfoPath = "/proc/cpuinfo";
/// The observability layer's per-container live counters (§ tentpole):
/// processes inside a container read their own adaptation state here.
constexpr const char* kTracePrefix = "/sys/arv/trace/";

// One /proc/cpuinfo record per visible processor, the fields runtimes grep.
std::string cpuinfo_for(int cpus) {
  std::string out;
  for (int cpu = 0; cpu < cpus; ++cpu) {
    out += strf(
        "processor\t: %d\nmodel name\t: Intel(R) Xeon(R) CPU E5-2650 v3 @ "
        "2.30GHz\ncpu MHz\t\t: 2300.000\n\n",
        cpu);
  }
  return out;
}

/// The kernel's knob ranges: cpu.shares in [2, MAX_SHARES = 2^18], a CFS
/// period of 1 ms to 1 s, and a quota of at most max_cfs_runtime (2^44 - 1
/// us). Wider values would overflow the bounds arithmetic downstream.
constexpr std::int64_t kMaxCpuShares = std::int64_t{1} << 18;

bool valid_cfs_period(std::int64_t us) { return us >= 1000 && us <= 1'000'000; }

bool valid_cfs_quota(std::int64_t us) {
  return us > 0 && us <= (std::int64_t{1} << 44) - 1;
}

/// The adaptation-policy control plane (§ policy layer): per-container
/// policy selectors and Params knobs, runtime-writable like `docker update`.
constexpr const char* kPolicyPrefix = "/sys/arv/policy/";

std::optional<std::int64_t> parse_i64(std::string_view text) {
  // The kernel accepts surrounding whitespace on knob writes (`echo " 4" >
  // cpu.shares` works), so trim both ends, not just trailing newlines.
  text = trim(text);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_f64(std::string_view text) {
  text = trim(text);
  if (text.empty()) {
    return std::nullopt;
  }
  const std::string owned(text);  // strtod needs a terminator
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

VirtualSysfs::VirtualSysfs(proc::ProcessTable& processes, cgroup::Tree& tree,
                           sched::FairScheduler& scheduler,
                           mem::MemoryManager& memory, core::NsMonitor& monitor)
    : processes_(processes),
      tree_(tree),
      scheduler_(scheduler),
      memory_(memory),
      monitor_(monitor) {
  build_host_files();
  tree_.subscribe([this](const cgroup::Event& event) {
    if (event.kind == cgroup::EventKind::kDestroyed) {
      // Knob files of a destroyed cgroup disappear, as in the real sysfs.
      fs_.remove_subtree("/sys/fs/cgroup/cpu/" + event.name + "/");
      fs_.remove_subtree("/sys/fs/cgroup/cpuset/" + event.name + "/");
      fs_.remove_subtree("/sys/fs/cgroup/memory/" + event.name + "/");
      fs_.remove_subtree("/sys/fs/cgroup/unified/" + event.name + "/");
      fs_.remove_subtree(std::string(kPolicyPrefix) + event.name + "/");
    }
  });
}

std::string VirtualSysfs::meminfo_for(Bytes total, Bytes free) const {
  // procfs reports kB. MemAvailable approximated as MemFree (no page cache
  // in the model).
  return strf(
      "MemTotal:       %lld kB\nMemFree:        %lld kB\nMemAvailable:   %lld kB\n",
      static_cast<long long>(total / 1024), static_cast<long long>(free / 1024),
      static_cast<long long>(free / 1024));
}

const std::string& VirtualSysfs::cpuinfo_cached(int cpus) const {
  auto it = cpuinfo_cache_.find(cpus);
  if (it == cpuinfo_cache_.end()) {
    it = cpuinfo_cache_.emplace(cpus, cpuinfo_for(cpus)).first;
  }
  return it->second;
}

void VirtualSysfs::build_host_files() {
  fs_.register_file(
      kCpuOnlinePath,
      [this] { return CpuSet::all(scheduler_.online_cpus()).to_string() + "\n"; });
  fs_.register_file(
      "/sys/devices/system/cpu/possible",
      [this] { return CpuSet::all(scheduler_.online_cpus()).to_string() + "\n"; });
  fs_.register_file(kMeminfoPath, [this] {
    return meminfo_for(memory_.total_ram(), memory_.free_memory());
  });
  fs_.register_file(kLoadavgPath, [this] {
    const double load = scheduler_.loadavg();
    return strf("%.2f %.2f %.2f %d/%zu 0\n", load, load, load,
                scheduler_.nr_running(), processes_.live_count());
  });
  fs_.register_file(
      kCpuinfoPath, [this] { return cpuinfo_cached(scheduler_.online_cpus()); });
  // Host-wide list of registered adaptation policies (registry keys, one per
  // line) — what the per-container policy selector files will accept.
  fs_.register_file(std::string(kPolicyPrefix) + "available", [] {
    std::string out;
    for (const std::string& name :
         core::PolicyRegistry::instance().cpu_names()) {
      out += name;
      out += '\n';
    }
    return out;
  });
}

void VirtualSysfs::register_policy_files(cgroup::CgroupId id,
                                         const std::string& name) {
  const std::string dir = std::string(kPolicyPrefix) + name + "/";

  // The two policy selectors. Reads report the live policy ("none" for a
  // container without a resource view); writes swap the policy in place and
  // re-derive the effective value immediately. A write of an unregistered
  // name is a write error, mirroring `echo bogus > .../scaling_governor`.
  fs_.register_writable(
      dir + "cpu",
      [this, id]() -> std::string {
        const auto ns = monitor_.lookup(id);
        return ns ? ns->cpu_policy_name() + "\n" : "none\n";
      },
      [this, id](std::string_view v) {
        const auto ns = monitor_.lookup(id);
        return ns != nullptr && ns->set_cpu_policy(std::string(trim(v)));
      });
  fs_.register_writable(
      dir + "mem",
      [this, id]() -> std::string {
        const auto ns = monitor_.lookup(id);
        return ns ? ns->mem_policy_name() + "\n" : "none\n";
      },
      [this, id](std::string_view v) {
        const auto ns = monitor_.lookup(id);
        return ns != nullptr && ns->set_mem_policy(std::string(trim(v)));
      });

  // One validated knob file per Params field. All writes funnel through
  // SysNamespace::set_params, so a value that fails Params::valid() (e.g.
  // cpu_step 0, a threshold of 1.5) is rejected with a write error and the
  // previous configuration stays live.
  const auto apply = [](const std::shared_ptr<core::SysNamespace>& ns,
                        core::Params params) {
    return ns != nullptr && ns->set_params(params);
  };
  auto double_knob = [&](const char* file, double core::Params::* field) {
    fs_.register_writable(
        dir + file,
        [this, id, field]() -> std::string {
          const auto ns = monitor_.lookup(id);
          return ns ? strf("%g\n", ns->params().*field) : "none\n";
        },
        [this, id, field, apply](std::string_view v) {
          const auto ns = monitor_.lookup(id);
          const auto value = parse_f64(v);
          if (ns == nullptr || !value) {
            return false;
          }
          core::Params params = ns->params();
          params.*field = *value;
          return apply(ns, params);
        });
  };
  double_knob("cpu_util_threshold", &core::Params::cpu_util_threshold);
  double_knob("mem_use_threshold", &core::Params::mem_use_threshold);
  double_knob("mem_growth_frac", &core::Params::mem_growth_frac);
  double_knob("ewma_alpha", &core::Params::ewma_alpha);
  double_knob("cpu_down_threshold", &core::Params::cpu_down_threshold);
  double_knob("mem_down_threshold", &core::Params::mem_down_threshold);
  double_knob("prop_gain", &core::Params::prop_gain);

  fs_.register_writable(
      dir + "cpu_step",
      [this, id]() -> std::string {
        const auto ns = monitor_.lookup(id);
        return ns ? strf("%d\n", ns->params().cpu_step) : "none\n";
      },
      [this, id, apply](std::string_view v) {
        const auto ns = monitor_.lookup(id);
        const auto value = parse_i64(v);
        // Range-check before narrowing: 2^32 + 1 must not wrap to a legal 1.
        if (ns == nullptr || !value || !std::in_range<int>(*value)) {
          return false;
        }
        core::Params params = ns->params();
        params.cpu_step = static_cast<int>(*value);
        return apply(ns, params);
      });
  fs_.register_writable(
      dir + "mem_prediction_gate",
      [this, id]() -> std::string {
        const auto ns = monitor_.lookup(id);
        return ns ? strf("%d\n", ns->params().mem_prediction_gate ? 1 : 0)
                  : "none\n";
      },
      [this, id, apply](std::string_view v) {
        const auto ns = monitor_.lookup(id);
        const auto value = parse_i64(v);
        if (ns == nullptr || !value || (*value != 0 && *value != 1)) {
          return false;
        }
        core::Params params = ns->params();
        params.mem_prediction_gate = *value == 1;
        return apply(ns, params);
      });
}

void VirtualSysfs::export_cgroup_files(cgroup::CgroupId id) {
  ARV_ASSERT(tree_.exists(id));
  const std::string name = tree_.get(id).name();

  const std::string cpu_dir = "/sys/fs/cgroup/cpu/" + name + "/";
  fs_.register_writable(
      cpu_dir + "cpu.shares",
      [this, id] { return strf("%lld\n", static_cast<long long>(tree_.get(id).cpu().shares)); },
      [this, id](std::string_view v) {
        const auto value = parse_i64(v);
        if (!value || *value < 2 || *value > kMaxCpuShares) {
          return false;
        }
        tree_.set_cpu_shares(id, *value);
        return true;
      });
  fs_.register_writable(
      cpu_dir + "cpu.cfs_quota_us",
      [this, id] {
        const auto quota = tree_.get(id).cpu().cfs_quota_us;
        return strf("%lld\n", static_cast<long long>(quota == kUnlimited ? -1 : quota));
      },
      [this, id](std::string_view v) {
        const auto value = parse_i64(v);
        if (!value || (*value != -1 && !valid_cfs_quota(*value))) {
          return false;
        }
        tree_.set_cfs_quota(id, *value == -1 ? kUnlimited : *value);
        return true;
      });
  fs_.register_writable(
      cpu_dir + "cpu.cfs_period_us",
      [this, id] { return strf("%lld\n", static_cast<long long>(tree_.get(id).cpu().cfs_period_us)); },
      [this, id](std::string_view v) {
        const auto value = parse_i64(v);
        if (!value || !valid_cfs_period(*value)) {
          return false;
        }
        tree_.set_cfs_period(id, *value);
        return true;
      });

  fs_.register_writable(
      "/sys/fs/cgroup/cpuset/" + name + "/cpuset.cpus",
      [this, id] { return tree_.get(id).cpu().cpuset.to_string() + "\n"; },
      [this, id](std::string_view v) {
        const auto mask = CpuSet::parse(v);
        if (!mask || mask->span() > tree_.online_cpus()) {
          return false;
        }
        tree_.set_cpuset(id, *mask);
        return true;
      });

  const std::string mem_dir = "/sys/fs/cgroup/memory/" + name + "/";
  fs_.register_writable(
      mem_dir + "memory.limit_in_bytes",
      [this, id] { return strf("%lld\n", static_cast<long long>(tree_.get(id).mem().limit_in_bytes)); },
      [this, id](std::string_view v) {
        const auto value = parse_i64(v);
        if (!value || *value <= 0) {
          return false;
        }
        tree_.set_mem_limit(id, *value);
        return true;
      });
  fs_.register_writable(
      mem_dir + "memory.soft_limit_in_bytes",
      [this, id] {
        return strf("%lld\n", static_cast<long long>(tree_.get(id).mem().soft_limit_in_bytes));
      },
      [this, id](std::string_view v) {
        const auto value = parse_i64(v);
        if (!value || *value <= 0) {
          return false;
        }
        tree_.set_mem_soft_limit(id, *value);
        return true;
      });
  fs_.register_file(mem_dir + "memory.usage_in_bytes",
                    [this, id] { return strf("%lld\n", static_cast<long long>(memory_.usage(id))); });

  // --- cgroup v2 (unified hierarchy) views of the same knobs ----------------
  const std::string v2_dir = "/sys/fs/cgroup/unified/" + name + "/";
  fs_.register_writable(
      v2_dir + "cpu.max",
      [this, id] {
        const auto& cfg = tree_.get(id).cpu();
        if (cfg.cfs_quota_us == kUnlimited) {
          return strf("max %lld\n", static_cast<long long>(cfg.cfs_period_us));
        }
        return strf("%lld %lld\n", static_cast<long long>(cfg.cfs_quota_us),
                    static_cast<long long>(cfg.cfs_period_us));
      },
      [this, id](std::string_view v) {
        const auto fields = split(std::string(trim(v)), ' ');
        if (fields.empty() || fields.size() > 2) {
          return false;
        }
        std::int64_t quota = kUnlimited;
        if (fields[0] != "max") {
          const auto parsed = parse_i64(fields[0]);
          if (!parsed || !valid_cfs_quota(*parsed)) {
            return false;
          }
          quota = *parsed;
        }
        if (fields.size() == 2) {
          const auto period = parse_i64(fields[1]);
          if (!period || !valid_cfs_period(*period)) {
            return false;
          }
          tree_.set_cfs_period(id, *period);
        }
        tree_.set_cfs_quota(id, quota);
        return true;
      });
  fs_.register_writable(
      v2_dir + "cpu.weight",
      [this, id] {
        // Kernel mapping: weight = 1 + ((shares - 2) * 9999) / 262142.
        const std::int64_t shares = tree_.get(id).cpu().shares;
        return strf("%lld\n",
                    static_cast<long long>(1 + (shares - 2) * 9999 / 262142));
      },
      [this, id](std::string_view v) {
        const auto weight = parse_i64(v);
        if (!weight || *weight < 1 || *weight > 10000) {
          return false;
        }
        // Inverse of the kernel mapping: shares = 2 + (weight - 1)*262142/9999.
        tree_.set_cpu_shares(id, 2 + (*weight - 1) * 262142 / 9999);
        return true;
      });
  fs_.register_writable(
      v2_dir + "memory.max",
      [this, id] {
        const Bytes limit = tree_.get(id).mem().limit_in_bytes;
        return limit == kUnlimited
                   ? std::string("max\n")
                   : strf("%lld\n", static_cast<long long>(limit));
      },
      [this, id](std::string_view v) {
        if (trim(v) == "max") {
          return false;  // raising to unlimited is not modeled
        }
        const auto value = parse_i64(v);
        if (!value || *value <= 0) {
          return false;
        }
        tree_.set_mem_limit(id, *value);
        return true;
      });
  fs_.register_writable(
      v2_dir + "memory.low",
      [this, id] {
        const Bytes soft = tree_.get(id).mem().soft_limit_in_bytes;
        return soft == kUnlimited ? std::string("0\n")
                                  : strf("%lld\n", static_cast<long long>(soft));
      },
      [this, id](std::string_view v) {
        const auto value = parse_i64(v);
        if (!value || *value <= 0) {
          return false;
        }
        tree_.set_mem_soft_limit(id, *value);
        return true;
      });
  fs_.register_file(v2_dir + "memory.current", [this, id] {
    return strf("%lld\n", static_cast<long long>(memory_.usage(id)));
  });
  fs_.register_file(v2_dir + "cpu.stat", [this, id] {
    const auto stats = scheduler_.stats(id);
    return strf("usage_usec %lld\nthrottled_usec %lld\n",
                static_cast<long long>(stats.total_usage),
                static_cast<long long>(stats.throttled_time));
  });

  register_policy_files(id, name);
}

std::shared_ptr<core::SysNamespace> VirtualSysfs::sys_ns_of(proc::Pid pid) const {
  if (!processes_.exists(pid)) {
    return nullptr;
  }
  const auto ns = processes_.namespace_of(pid, proc::Namespace::Kind::kSys);
  return std::dynamic_pointer_cast<core::SysNamespace>(ns);
}

std::optional<std::string> VirtualSysfs::read(proc::Pid pid,
                                              const std::string& path) const {
  // §3.2: "when a process probes system resources and is linked to its own
  // namespaces other than the init namespaces, a virtual sysfs is created
  // for this process" — queries are redirected to the per-container view.
  if (const auto ns = sys_ns_of(pid)) {
    if (path == kCpuOnlinePath) {
      return CpuSet::first_n(ns->effective_cpus()).to_string() + "\n";
    }
    if (path == kMeminfoPath) {
      const Bytes total = ns->effective_memory();
      const Bytes used = memory_.usage(ns->cgroup());
      return meminfo_for(total, std::max<Bytes>(0, total - used));
    }
    if (path == kCpuinfoPath) {
      return cpuinfo_cached(ns->effective_cpus());
    }
    if (path.rfind(kTracePrefix, 0) == 0) {
      if (const auto value = trace_counter_for(*ns, path.substr(
              std::string(kTracePrefix).size()))) {
        return strf("%lld\n", static_cast<long long>(*value));
      }
    }
  }
  return fs_.read(path);
}

std::optional<std::int64_t> VirtualSysfs::trace_counter_for(
    const core::SysNamespace& ns, const std::string& counter) const {
  if (counter == "e_cpu") {
    return ns.effective_cpus();
  }
  if (counter == "e_mem") {
    return ns.effective_memory();
  }
  if (counter == "cpu_lower") {
    return ns.cpu_bounds().lower;
  }
  if (counter == "cpu_upper") {
    return ns.cpu_bounds().upper;
  }
  if (counter == "mem_soft") {
    return ns.mem_soft_limit();
  }
  if (counter == "mem_hard") {
    return ns.mem_hard_limit();
  }
  if (counter == "cpu_updates") {
    return static_cast<std::int64_t>(ns.cpu_updates());
  }
  if (counter == "mem_updates") {
    return static_cast<std::int64_t>(ns.mem_updates());
  }
  if (counter == "mem_usage") {
    return memory_.usage(ns.cgroup());
  }
  if (counter == "cpu_usage") {
    return scheduler_.total_usage(ns.cgroup());
  }
  // Decision-reason tallies: why the policy moved (or held) the effective
  // values, e.g. /sys/arv/trace/cpu_grew.
  const auto decisions = [&](const core::DecisionCounters& c,
                             std::string_view reason)
      -> std::optional<std::int64_t> {
    if (reason == "grew") {
      return static_cast<std::int64_t>(c.grew);
    }
    if (reason == "shrank") {
      return static_cast<std::int64_t>(c.shrank);
    }
    if (reason == "clamped") {
      return static_cast<std::int64_t>(c.clamped);
    }
    if (reason == "reset") {
      return static_cast<std::int64_t>(c.reset);
    }
    if (reason == "held") {
      return static_cast<std::int64_t>(c.held);
    }
    return std::nullopt;
  };
  if (counter.rfind("cpu_", 0) == 0) {
    return decisions(ns.cpu_decisions(), std::string_view(counter).substr(4));
  }
  if (counter.rfind("mem_", 0) == 0) {
    return decisions(ns.mem_decisions(), std::string_view(counter).substr(4));
  }
  return std::nullopt;
}

void VirtualSysfs::register_control_file(const std::string& path,
                                         FileProvider provider) {
  ARV_ASSERT_MSG(path.rfind("/sys/arv/", 0) == 0,
                 "control files live under /sys/arv/");
  fs_.register_file(path, std::move(provider));
}

void VirtualSysfs::remove_control_subtree(const std::string& prefix) {
  ARV_ASSERT_MSG(prefix.rfind("/sys/arv/", 0) == 0,
                 "control files live under /sys/arv/");
  fs_.remove_subtree(prefix);
}

void VirtualSysfs::attach_trace(const obs::TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ == nullptr) {
    // Detach: the files stay registered, so readers keep finding them, but
    // their lambdas guard on trace_ so reads degrade to empty instead of
    // dereferencing null.
    return;
  }
  fs_.register_file(std::string(kTracePrefix) + "series", [this] {
    std::string out;
    if (trace_ == nullptr) {
      return out;
    }
    for (const std::string& name : trace_->series_names()) {
      out += name;
      out += '\n';
    }
    return out;
  });
  fs_.register_file(std::string(kTracePrefix) + "samples", [this] {
    if (trace_ == nullptr) {
      return std::string();
    }
    return strf("%zu\n", trace_->sample_count());
  });
}

bool VirtualSysfs::write(const std::string& path, std::string_view value) {
  return fs_.write(path, value);
}

long VirtualSysfs::sysconf(proc::Pid pid, Sysconf name) const {
  const auto ns = sys_ns_of(pid);
  switch (name) {
    case Sysconf::kNProcessorsOnln:
    case Sysconf::kNProcessorsConf:
      return ns ? ns->effective_cpus() : scheduler_.online_cpus();
    case Sysconf::kPhysPages: {
      const Bytes total = ns ? ns->effective_memory() : memory_.total_ram();
      return static_cast<long>(total / units::page);
    }
    case Sysconf::kAvPhysPages: {
      if (ns) {
        const Bytes avail = ns->effective_memory() - memory_.usage(ns->cgroup());
        return static_cast<long>(std::max<Bytes>(0, avail) / units::page);
      }
      return static_cast<long>(memory_.free_memory() / units::page);
    }
    case Sysconf::kPageSize:
      return static_cast<long>(units::page);
  }
  return -1;
}

}  // namespace arv::vfs
