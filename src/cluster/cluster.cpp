#include "src/cluster/cluster.h"

#include <algorithm>
#include <chrono>

#include "src/cluster/profile.h"
#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::cluster {
namespace {

/// Window over which per-host slack is accumulated for the "effective"
/// strategy and the rebalancer (the observed-idle signal).
constexpr SimDuration kObserveWindow = 100 * units::msec;
/// Migration cost model: freeze = base + committed_bytes / bandwidth.
constexpr SimDuration kMigrationFreeze = 50 * units::msec;
constexpr Bytes kMigrationBandwidthPerSec = 256 * units::MiB;

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config), rng_(config.seed), components_(config.tick) {
  ARV_ASSERT(config_.tick > 0);
  ARV_ASSERT(kObserveWindow >= config_.tick);
  cur_.pods = &pods_;
  if (config_.enable_tracing) {
    obs::TraceConfig trace_config;
    trace_config.sample_interval = config_.trace_interval;
    trace_ = std::make_unique<obs::TraceRecorder>(trace_config);
    trace_->add_counter("cluster.migrations", "", [this] {
      return static_cast<std::int64_t>(migrations_);
    });
    trace_->add_gauge("cluster.pods", "", [this] {
      std::int64_t running = 0;
      for (const Pod& pod : pods_) {
        running += pod.running() ? 1 : 0;
      }
      return running;
    });
    trace_->add_counter("cluster.faults", "", [this] {
      return static_cast<std::int64_t>(pod_crashes_ + host_crashes_);
    });
    trace_->add_counter("cluster.failovers", "", [this] {
      return static_cast<std::int64_t>(failovers_);
    });
    trace_->add_counter("pod.restarts", "", [this] {
      return static_cast<std::int64_t>(restarts_);
    });
    trace_->add_gauge("cluster.hosts_up", "", [this] {
      std::int64_t up = 0;
      for (const HostState& state : hosts_) {
        up += state.up ? 1 : 0;
      }
      return up;
    });
    trace_->add_counter("cluster.hosts_skipped", "", [this] {
      return static_cast<std::int64_t>(hosts_skipped());
    });
  }
}

int Cluster::add_host(container::HostConfig host_config) {
  ARV_ASSERT_MSG(now_ == 0, "add hosts before advancing the cluster clock");
  ARV_ASSERT_MSG(host_config.tick == config_.tick,
                 "host tick must match the cluster tick");
  HostState state;
  state.host = std::make_unique<container::Host>(host_config);
  state.runtime = std::make_unique<container::ContainerRuntime>(*state.host);
  // An unobserved host counts as fully idle: placement on a fresh cluster
  // must not read "no completed window yet" as "saturated".
  state.window_slack =
      static_cast<CpuTime>(host_config.cpus) * kObserveWindow;
  hosts_.push_back(std::move(state));
  const int index = static_cast<int>(hosts_.size()) - 1;
  awake_.push_back(index);  // at cluster time (0), so awake
  mark_host_dirty(index);  // the first refresh builds the row
  if (trace_ != nullptr) {
    register_host_trace(index);
  }
  if (index == kControlHost) {
    // The fleet snapshot publishes on the control host's sysfs, next to the
    // control loops' directories.
    vfs::VirtualSysfs& sysfs = hosts_[kControlHost].host->sysfs();
    sysfs.register_control_file("/sys/arv/fleet/hosts",
                                [this] { return cur_.render_hosts(); });
    sysfs.register_control_file("/sys/arv/fleet/pods",
                                [this] { return render_pods(); });
  }
  return index;
}

void Cluster::register_host_trace(int index) {
  std::string scope = "h";  // appended: GCC 12 -Wrestrict false positive on "h" + ...
  scope += std::to_string(index);
  trace_->add_gauge("slack_window", scope, [this, index] {
    return hosts_[static_cast<std::size_t>(index)].window_slack;
  });
  trace_->add_gauge("free_mem", scope, [this, index] {
    return hosts_[static_cast<std::size_t>(index)].host->memory().free_memory();
  });
  trace_->add_gauge("pods", scope,
                    [this, index] { return hosts_[static_cast<std::size_t>(index)].pods; });
  trace_->add_counter("slack_total", scope,
                      [this, index] { return host_slack_total(index); });
  trace_->add_gauge("up", scope, [this, index] {
    return hosts_[static_cast<std::size_t>(index)].up ? 1 : 0;
  });
}

void Cluster::add_component(sim::TickComponent* component) {
  // Mid-step, before the dispatch phase, the engine still reads the previous
  // tick and would dispatch the newcomer on this one.
  ARV_ASSERT_MSG(components_.now() == now_,
                 "add cluster components between steps or from a tick()");
  components_.add_component(component);
}

void Cluster::step() {
  ARV_ASSERT_MSG(!hosts_.empty(), "cluster has no hosts");
  now_ += config_.tick;
  host_phase();
  // Serial phases, in a fixed order; every stage iterates hosts/pods in
  // index order.
  roll_slack_window();
  // Migrations land before components run, so a rebalancer/router round
  // never observes a pod that should already have arrived; the fleet
  // snapshot refreshes after landing so it reflects the landed state.
  settle_migrations();
  refresh_fleet();
  components_.step();
  ARV_ASSERT(components_.now() == now_);
  if (trace_ != nullptr) {
    trace_->tick(now_, config_.tick);
  }
  ++steps_;
}

void Cluster::host_phase() {
  const auto wall_start = std::chrono::steady_clock::now();
  in_host_phase_ = true;
  const auto step_host = [this](int index) {
    container::Host& host = *hosts_[static_cast<std::size_t>(index)].host;
    ARV_ASSERT_MSG(host.now() + config_.tick == now_,
                   "non-quiescent host fell behind the cluster clock");
    host.engine().step();
    ARV_ASSERT(host.now() == now_);
    mark_host_dirty(index);
  };
  if (!config_.skip_idle_hosts) {
    // The reference path: every host steps and stays on the awake list.
    for (int i = 0; i < host_count(); ++i) {
      step_host(i);
    }
  } else {
    // Touches wake hosts out of order; step in index order. A quiescent
    // host freezes: it leaves the list, host_slack_total and the trace
    // account for its gap analytically, and sync_host replays it on touch.
    std::sort(awake_.begin(), awake_.end());
    std::size_t kept = 0;
    for (const int index : awake_) {
      if (!hosts_[static_cast<std::size_t>(index)].host->quiescent()) {
        step_host(index);
        awake_[kept++] = index;
      }
    }
    awake_.resize(kept);
  }
  hosts_skipped_ += hosts_.size() - awake_.size();  // listed == stepped
  in_host_phase_ = false;
  host_phase_wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
}

void Cluster::sync_host(int index) {
  ARV_ASSERT_MSG(!in_host_phase_, "hosts are touched in the serial phases only");
  HostState& state = hosts_.at(static_cast<std::size_t>(index));
  if (state.host->now() < now_) {
    state.host->advance_idle(now_);
    awake_.push_back(index);  // behind means frozen, so not yet listed
  }
}

CpuTime Cluster::host_slack_total(int index) const {
  const HostState& state = hosts_.at(static_cast<std::size_t>(index));
  return state.host->scheduler().total_slack() +
         static_cast<CpuTime>(state.host->cpus()) * (now_ - state.host->now());
}

void Cluster::run_for(SimDuration duration) {
  const SimTime end = now_ + duration;
  while (now_ < end) {
    step();
  }
}

void Cluster::roll_slack_window() {
  window_elapsed_ += config_.tick;
  if (window_elapsed_ < kObserveWindow) {
    return;
  }
  window_elapsed_ = 0;
  for (int i = 0; i < host_count(); ++i) {
    // The difference of two cumulative totals. host_slack_total credits a
    // frozen gap with the cpus × gap advance_idle adds on sync, so this is
    // exact whether the host stepped, froze or was synced in between.
    HostState& state = hosts_[static_cast<std::size_t>(i)];
    const CpuTime total = host_slack_total(i);
    const CpuTime slack = total - state.slack_at_roll;
    state.slack_at_roll = total;
    if (slack != state.window_slack) {
      state.window_slack = slack;
      mark_host_dirty(i);
    }
  }
}

int Cluster::create_pod(int host_index, PodSpec spec, WorkloadFactory factory) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  ARV_ASSERT(host_index >= 0 && host_index < host_count());
  ARV_ASSERT_MSG(host_up(host_index), "cannot create a pod on a down host");
  if (spec.name.empty()) {
    spec.name = "pod-" + std::to_string(pods_.size());
  }
  Pod pod;
  pod.id = static_cast<int>(pods_.size());
  pod.spec = std::move(spec);
  pod.host = host_index;
  pod.factory = std::move(factory);
  book(host_index, pod.spec, +1);
  pods_.push_back(std::move(pod));
  land_pod(pods_.back());
  return pods_.back().id;
}

void Cluster::land_pod(Pod& pod) {
  sync_host(pod.host);  // a frozen target catches up before anything lands
  mark_host_dirty(pod.host);
  HostState& state = hosts_[static_cast<std::size_t>(pod.host)];
  ARV_ASSERT_MSG(state.up, "cannot land a pod on a down host");
  container::ContainerConfig cgroup_config = container::pod_container(
      pod.spec.name, pod.spec.resources, pod.spec.enable_view);
  if (!pod.spec.view_policy.empty()) {
    cgroup_config.view_params.policy = pod.spec.view_policy;
  }
  if (pod.spec.cpu_mode == CpuMode::kBurstable) {
    // Throttle-free mode: keep the shares weight, never set a CFS quota.
    // Applied at every landing so the mode survives migration and failover.
    cgroup_config.cfs_quota_us = kUnlimited;
  }
  pod.container = &state.runtime->run(cgroup_config);
  if (pod.factory) {
    pod.workload = pod.factory(*state.host, *pod.container);
  }
  pod.placed_at = now_;
}

void Cluster::harvest_stats(Pod& pod) {
  if (pod.workload == nullptr) {
    return;
  }
  if (server::WorkerPoolServer* sink = pod.workload->request_sink()) {
    pod.archived.merge(sink->stats());
    // Requests accepted but still queued die with the sink: teardown
    // (migration freeze, stop, crash) drops the accept queue.
    pod.lost += sink->queue_depth();
  }
}

PodCounters Cluster::pod_counters(int pod_id) const {
  const Pod& pod = pods_.at(static_cast<std::size_t>(pod_id));
  ARV_ASSERT_MSG(pod.running(), "counters of a pod that is not running");
  container::Host& host = *hosts_.at(static_cast<std::size_t>(pod.host)).host;
  const cgroup::CgroupId cg = pod.container->cgroup();
  return {host.scheduler().total_usage(cg), host.memory().committed(cg),
          host.memory().oom_killed(cg)};
}

void Cluster::stop_pod(int pod_id) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  Pod& pod = pods_.at(static_cast<std::size_t>(pod_id));
  ARV_ASSERT_MSG(pod.host >= 0, "pod is already stopped");
  sync_host(pod.host);
  mark_host_dirty(pod.host);
  if (pod.running()) {
    harvest_stats(pod);
    pod.workload.reset();  // detaches from the source scheduler
    pod.container->stop();
    pod.container = nullptr;
  } else if (pod.in_flight()) {
    // The flight was already harvested and torn down at departure; cancel
    // the landing so the target never materializes a stopped pod, and fall
    // through to release the reservation the migration took on the target.
    cancel_flight(pod.id);
  }
  // Failed pods only need their ledger slot released.
  book(pod.host, pod.spec, -1);
  pod.host = -1;
  pod.failed = false;
}

void Cluster::migrate_pod(int pod_id, int target_host) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  Pod& pod = pods_.at(static_cast<std::size_t>(pod_id));
  ARV_ASSERT(target_host >= 0 && target_host < host_count());
  ARV_ASSERT_MSG(pod.running(), "cannot migrate a stopped or in-flight pod");
  ARV_ASSERT_MSG(pod.host != target_host, "pod is already on the target host");
  ARV_ASSERT_MSG(host_up(target_host), "cannot migrate toward a down host");
  mark_host_dirty(pod.host);
  mark_host_dirty(target_host);
  HostState& source = hosts_[static_cast<std::size_t>(pod.host)];
  // Cost model: freeze grows with the state that must move. Read before the
  // container (and its memory charges) is torn down.
  const Bytes state_bytes =
      source.host->memory().committed(pod.container->cgroup());
  const SimDuration freeze =
      kMigrationFreeze + state_bytes * units::sec / kMigrationBandwidthPerSec;

  harvest_stats(pod);
  pod.workload.reset();
  pod.container->stop();
  pod.container = nullptr;
  book(pod.host, pod.spec, -1);
  // Reserve the target slot for the whole flight.
  book(target_host, pod.spec, +1);
  pod.host = target_host;
  ++pod.migrations;
  ++migrations_;
  pending_.push_back({now_ + freeze, next_migration_seq_++, pod.id});
  ARV_LOG(kDebug, "cluster", "migrating pod %d -> h%d (freeze %lld us)",
          pod.id, target_host, static_cast<long long>(freeze));
}

void Cluster::book(int host_index, const PodSpec& spec, int sign) {
  HostState& state = hosts_[static_cast<std::size_t>(host_index)];
  state.requested_millicpu += sign * spec.resources.request_millicpu;
  state.requested_memory += sign * spec.resources.request_memory;
  state.pods += sign;
}

void Cluster::cancel_flight(int pod_id) {
  std::erase_if(pending_, [pod_id](const PendingMigration& flight) {
    return flight.pod == pod_id;
  });
}

void Cluster::settle_migrations() {
  if (pending_.empty()) {
    return;
  }
  // Due flights land in (due, seq) order; the vector stays tiny (a
  // rebalancer issues at most a migration or two per round).
  std::vector<PendingMigration> still_pending;
  std::vector<PendingMigration> due;
  for (const PendingMigration& flight : pending_) {
    (flight.due <= now_ ? due : still_pending).push_back(flight);
  }
  std::sort(due.begin(), due.end(),
            [](const PendingMigration& a, const PendingMigration& b) {
              return a.due != b.due ? a.due < b.due : a.seq < b.seq;
            });
  pending_ = std::move(still_pending);
  for (const PendingMigration& flight : due) {
    land_pod(pods_.at(static_cast<std::size_t>(flight.pod)));
  }
}

void Cluster::fail_pod(Pod& pod) {
  if (pod.host >= 0) {
    mark_host_dirty(pod.host);
  }
  harvest_stats(pod);
  pod.workload.reset();
  if (pod.container != nullptr) {
    pod.container->stop();
    pod.container = nullptr;
  }
  pod.failed = true;
  pod.crashed_at = now_;
}

void Cluster::crash_host(int host_index) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  ARV_ASSERT(host_index >= 0 && host_index < host_count());
  sync_host(host_index);  // a crash observes a host at cluster time, always
  mark_host_dirty(host_index);
  HostState& state = hosts_[static_cast<std::size_t>(host_index)];
  ARV_ASSERT_MSG(state.up, "host is already down");
  state.up = false;
  ++host_crashes_;
  for (Pod& pod : pods_) {
    if (pod.host != host_index) {
      continue;
    }
    if (pod.running()) {
      fail_pod(pod);
    } else if (pod.in_flight()) {
      // A flight toward a crashing host is lost mid-copy: the source side
      // already tore the replica down, so the pod just fails in place on
      // the (down) target and waits for failover like the rest.
      cancel_flight(pod.id);
      pod.failed = true;
      pod.crashed_at = now_;
    }
  }
  ARV_LOG(kWarn, "cluster", "host h%d crashed (%d pods lost)", host_index,
          state.pods);
}

void Cluster::reboot_host(int host_index) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  ARV_ASSERT(host_index >= 0 && host_index < host_count());
  sync_host(host_index);
  mark_host_dirty(host_index);
  HostState& state = hosts_[static_cast<std::size_t>(host_index)];
  ARV_ASSERT_MSG(!state.up, "host is not down");
  state.up = true;
  // Fresh boot: injected host-memory pressure does not survive a reboot.
  state.host->memory().reserve_host_memory(0);
  ARV_LOG(kInfo, "cluster", "host h%d rebooted", host_index);
}

void Cluster::cordon_host(int host_index, bool cordoned) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  ARV_ASSERT(host_index >= 0 && host_index < host_count());
  HostState& state = hosts_[static_cast<std::size_t>(host_index)];
  if (state.cordoned == cordoned) {
    return;
  }
  mark_host_dirty(host_index);
  state.cordoned = cordoned;
  ARV_LOG(kInfo, "cluster", "host h%d %s", host_index,
          cordoned ? "cordoned" : "uncordoned");
}

int Cluster::active_hosts() const {
  int active = 0;
  for (const HostState& state : hosts_) {
    if (state.up && !state.cordoned) {
      ++active;
    }
  }
  return active;
}

void Cluster::crash_pod(int pod_id) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  Pod& pod = pods_.at(static_cast<std::size_t>(pod_id));
  ARV_ASSERT_MSG(pod.running(), "cannot crash a pod that is not running");
  fail_pod(pod);
  ++pod_crashes_;
  ARV_LOG(kInfo, "cluster", "pod %d crashed on h%d", pod.id, pod.host);
}

void Cluster::restart_pod(int pod_id) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  Pod& pod = pods_.at(static_cast<std::size_t>(pod_id));
  ARV_ASSERT_MSG(pod.failed && pod.host >= 0, "pod is not awaiting restart");
  ARV_ASSERT_MSG(host_up(pod.host), "cannot restart a pod on a down host");
  pod.failed = false;
  ++pod.restarts;
  ++restarts_;
  land_pod(pod);
}

void Cluster::failover_pod(int pod_id, int target_host) {
  ARV_ASSERT_MSG(!in_host_phase_, "mutations are serial-phase only");
  Pod& pod = pods_.at(static_cast<std::size_t>(pod_id));
  ARV_ASSERT(target_host >= 0 && target_host < host_count());
  ARV_ASSERT_MSG(pod.failed && pod.host >= 0, "pod is not awaiting failover");
  ARV_ASSERT_MSG(host_up(target_host), "cannot fail over to a down host");
  ARV_ASSERT_MSG(pod.host != target_host, "failover target is the pod's host");
  mark_host_dirty(pod.host);
  book(pod.host, pod.spec, -1);
  book(target_host, pod.spec, +1);
  pod.host = target_host;
  pod.failed = false;
  ++pod.failovers;
  ++failovers_;
  land_pod(pod);
  ARV_LOG(kInfo, "cluster", "pod %d failed over -> h%d", pod.id, target_host);
}

HostView Cluster::host_view(int index) const {
  const HostState& state = hosts_.at(static_cast<std::size_t>(index));
  HostView view;
  view.index = index;
  // Flat subsystem reads only: this runs per tick over up to 256 hosts.
  // Every field is valid for a frozen host: free memory and the ledger do
  // not change while frozen, and window_slack is maintained analytically.
  view.capacity_millicpu = static_cast<std::int64_t>(state.host->cpus()) * 1000;
  view.capacity_memory = state.host->ram();
  view.requested_millicpu = state.requested_millicpu;
  view.requested_memory = state.requested_memory;
  view.pods = state.pods;
  // window_slack is idle CPU-time over the observation window; normalize to
  // milli-CPUs (1000 = one core fully idle across the window).
  view.slack_millicpu = state.window_slack * 1000 / kObserveWindow;
  view.free_memory = state.host->memory().free_memory();
  view.up = state.up;
  view.cordoned = state.cordoned;
  return view;
}

const FleetView& Cluster::fleet_view() {
  ARV_ASSERT_MSG(!in_host_phase_, "fleet reads are serial-phase only");
  if (!stale_rows_.empty()) {
    refresh_fleet();
  }
  return cur_;
}

void Cluster::invalidate_fleet_view() {
  for (int i = 0; i < host_count(); ++i) {
    mark_host_dirty(i);
  }
}

void Cluster::refresh_fleet() {
  // Only a listed host can have a changed row: a frozen, untouched host's
  // observables are constant by the quiescence invariant, and its
  // window_slack only changes at a roll, which lists it.
  cur_.hosts.resize(hosts_.size());
  rows_reused_ += hosts_.size() - stale_rows_.size();
  for (const int index : stale_rows_) {
    hosts_[static_cast<std::size_t>(index)].row_stale = false;
    cur_.hosts[static_cast<std::size_t>(index)] = host_view(index);
  }
  stale_rows_.clear();
  cur_.at = now_;
}

std::string Cluster::render_pods() const {
  std::string out;
  for (const Pod& pod : pods_) {
    out += "pod" + std::to_string(pod.id);
    out += " host=" + std::to_string(pod.host);
    out += " svc=" + pod.spec.service_name();
    out += " req=" + std::to_string(pod.spec.resources.request_millicpu) +
           "m/" + std::to_string(pod.spec.resources.request_memory);
    // Safe without syncing: committed bytes are constant while frozen.
    const Bytes committed =
        pod.running() ? hosts_[static_cast<std::size_t>(pod.host)]
                            .host->memory()
                            .committed(pod.container->cgroup())
                      : 0;
    out += " committed=" + std::to_string(committed);
    const PodProfile p =
        profiles() != nullptr ? profiles()->profile(pod.id) : PodProfile{};
    if (p.samples > 0) {
      out += " cpu_p50=" + std::to_string(p.cpu_p50_millicpu) + "m";
      out += " cpu_p95=" + std::to_string(p.cpu_p95_millicpu) + "m";
      out += " mem_p50=" + std::to_string(p.mem_p50);
      out += " mem_p95=" + std::to_string(p.mem_p95);
      out += " burst=" + std::to_string(p.burst_permille);
      out += " samples=" + std::to_string(p.samples);
    }
    if (pod.running()) {
      out += " running";
    } else if (pod.in_flight()) {
      out += " in-flight";
    } else if (pod.failed) {
      out += " failed";
    } else {
      out += " stopped";
    }
    out += "\n";
  }
  return out;
}

}  // namespace arv::cluster
