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
constexpr Bytes kMigrationBandwidthPerSec = 256 * units::MiB;

/// The service a pod's fleet row files under (same fallback as
/// ProfileStore::service_of — duplicated to keep the row builder free of a
/// profile-store dependency when none is attached).
const std::string& service_key(const Pod& pod) {
  return pod.spec.service.empty() ? pod.spec.name : pod.spec.service;
}

}  // namespace

Cluster::Cluster(ClusterConfig config) : config_(config), rng_(config.seed) {
  ARV_ASSERT(config_.tick > 0);
  ARV_ASSERT(kObserveWindow >= config_.tick);
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
                                [this] { return cur_.render_pods(); });
    // The diff file shows the current snapshot against the one published at
    // the previous tick boundary; after a tick that changed nothing that is
    // "generation N -> N" with no rows.
    sysfs.register_control_file("/sys/arv/fleet/diff",
                                [this] { return cur_.diff(prev_).render(); });
    sysfs.register_control_file("/sys/arv/fleet/generation", [this] {
      return std::to_string(fleet_gen_) + "\n";
    });
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
  ARV_ASSERT(component != nullptr);
  Dispatch dispatch;
  dispatch.component = component;
  dispatch.next = now_ + config_.tick;  // first dispatch on the next tick
  dispatch.last = now_;
  components_.push_back(dispatch);
}

void Cluster::step() {
  ARV_ASSERT_MSG(!hosts_.empty(), "cluster has no hosts");
  now_ += config_.tick;
  host_phase();
  // Serial phases, in a fixed order; every stage iterates hosts/pods in
  // index order.
  observe_slack();
  // Migrations land before components run, so a rebalancer/router round
  // never observes a pod that should already have arrived; the fleet
  // snapshot refreshes after landing so it reflects the landed state.
  settle_migrations();
  refresh_fleet(/*boundary=*/true);
  dispatch_components();
  if (trace_ != nullptr) {
    trace_->tick(now_, config_.tick);
  }
  ++steps_;
}

void Cluster::host_phase() {
  const auto wall_start = std::chrono::steady_clock::now();
  in_host_phase_ = true;
  for (HostState& state : hosts_) {
    if (config_.skip_idle_hosts && state.host->quiescent()) {
      // Freeze: the host's clock stays behind; observe_slack and the trace
      // account for the gap analytically, sync_host replays it on touch.
      ++hosts_skipped_;
      continue;
    }
    // A host can only fall behind while quiescent, and quiescence cannot
    // flip off spontaneously — only a serial-phase touch (which syncs) can
    // end it — so a non-skipped host is always exactly one tick behind.
    ARV_ASSERT_MSG(state.host->now() + config_.tick == now_,
                   "non-quiescent host fell behind the cluster clock");
    state.host->engine().step();
    ARV_ASSERT(state.host->now() == now_);
  }
  in_host_phase_ = false;
  host_phase_wall_us_ += std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
}

void Cluster::sync_host(int index) {
  HostState& state = hosts_.at(static_cast<std::size_t>(index));
  if (state.host->now() < now_) {
    state.host->advance_idle(now_);
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

void Cluster::observe_slack() {
  for (HostState& state : hosts_) {
    if (state.host->now() < now_) {
      // Frozen host: the skipped tick's slack is analytic — full capacity
      // idle. last_total_slack advances in lockstep so the diff stays exact
      // when the host later syncs (advance_idle adds the same total).
      const CpuTime tick_slack =
          static_cast<CpuTime>(state.host->cpus()) * config_.tick;
      state.accum_slack += tick_slack;
      state.last_total_slack += tick_slack;
      continue;
    }
    const CpuTime total = state.host->scheduler().total_slack();
    state.accum_slack += total - state.last_total_slack;
    state.last_total_slack = total;
  }
  window_elapsed_ += config_.tick;
  if (window_elapsed_ >= kObserveWindow) {
    window_elapsed_ = 0;
    for (HostState& state : hosts_) {
      state.window_slack = state.accum_slack;
      state.accum_slack = 0;
    }
    // Every host's slack_millicpu just changed: the next fleet refresh must
    // re-observe every row, frozen hosts included.
    window_rolled_ = true;
    fleet_dirty_ = true;
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
  HostState& state = hosts_[static_cast<std::size_t>(host_index)];
  state.requested_millicpu += pod.spec.resources.request_millicpu;
  state.requested_memory += pod.spec.resources.request_memory;
  ++state.pods;
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
    cgroup_config.view_params.cpu_policy = pod.spec.view_policy;
    cgroup_config.view_params.mem_policy = pod.spec.view_policy;
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
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [&pod](const PendingMigration& flight) {
                                    return flight.pod == pod.id;
                                  }),
                   pending_.end());
  }
  // Failed pods only need their ledger slot released.
  HostState& state = hosts_[static_cast<std::size_t>(pod.host)];
  state.requested_millicpu -= pod.spec.resources.request_millicpu;
  state.requested_memory -= pod.spec.resources.request_memory;
  --state.pods;
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
      config_.migration_freeze +
      state_bytes * units::sec / kMigrationBandwidthPerSec;

  harvest_stats(pod);
  pod.workload.reset();
  pod.container->stop();
  pod.container = nullptr;
  source.requested_millicpu -= pod.spec.resources.request_millicpu;
  source.requested_memory -= pod.spec.resources.request_memory;
  --source.pods;

  // Reserve the target slot for the whole flight.
  HostState& target = hosts_[static_cast<std::size_t>(target_host)];
  target.requested_millicpu += pod.spec.resources.request_millicpu;
  target.requested_memory += pod.spec.resources.request_memory;
  ++target.pods;
  pod.host = target_host;
  ++pod.migrations;
  ++migrations_;
  pending_.push_back({now_ + freeze, next_migration_seq_++, pod.id});
  ARV_LOG(kDebug, "cluster", "migrating pod %d -> h%d (freeze %lld us)",
          pod.id, target_host, static_cast<long long>(freeze));
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
      pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                    [&pod](const PendingMigration& flight) {
                                      return flight.pod == pod.id;
                                    }),
                     pending_.end());
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
  HostState& source = hosts_[static_cast<std::size_t>(pod.host)];
  source.requested_millicpu -= pod.spec.resources.request_millicpu;
  source.requested_memory -= pod.spec.resources.request_memory;
  --source.pods;
  HostState& target = hosts_[static_cast<std::size_t>(target_host)];
  target.requested_millicpu += pod.spec.resources.request_millicpu;
  target.requested_memory += pod.spec.resources.request_memory;
  ++target.pods;
  pod.host = target_host;
  pod.failed = false;
  ++pod.failovers;
  ++failovers_;
  land_pod(pod);
  ARV_LOG(kInfo, "cluster", "pod %d failed over -> h%d", pod.id, target_host);
}

void Cluster::dispatch_components() {
  for (Dispatch& dispatch : components_) {
    if (dispatch.next > now_) {
      continue;
    }
    dispatch.component->tick(now_, now_ - dispatch.last);
    dispatch.last = now_;
    const SimDuration period =
        std::max(dispatch.component->tick_period(), config_.tick);
    dispatch.next = now_ + period;
  }
}

HostView Cluster::host_view(int index) const {
  const HostState& state = hosts_.at(static_cast<std::size_t>(index));
  HostView view;
  view.index = index;
  // Flat subsystem reads only — Host::snapshot() builds per-container name
  // strings, far too heavy for a per-tick arena refresh over 256 hosts.
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
  if (fleet_dirty_) {
    refresh_fleet(/*boundary=*/false);
  }
  return cur_;
}

void Cluster::invalidate_fleet_view() {
  fleet_dirty_ = true;
  for (HostState& state : hosts_) {
    ++state.view_gen;
  }
}

void Cluster::attach_profiles(const ProfileStore* profiles) {
  profiles_ = profiles;
  invalidate_fleet_view();
}

void Cluster::refresh_fleet(bool boundary) {
  // Rotate buffers so `old` holds the last published content and cur_ holds
  // recycled allocations to overwrite. Boundary refreshes publish into the
  // prev_/cur_ pair (diff's per-tick baseline); lazy mid-tick refreshes
  // recycle scratch_ and leave prev_ untouched.
  FleetView& old = boundary ? prev_ : scratch_;
  std::swap(old, cur_);
  rebuild_fleet(old);
  if (!cur_.same_content(old)) {
    ++fleet_gen_;
  }
  cur_.generation = fleet_gen_;
  cur_.at = now_;
  cur_.profiles = profiles_;
  fleet_dirty_ = false;
  window_rolled_ = false;
  for (HostState& state : hosts_) {
    state.refreshed_gen = state.view_gen;
  }
}

void Cluster::rebuild_fleet(const FleetView& old) {
  const std::size_t host_count_sz = hosts_.size();
  cur_.hosts.resize(host_count_sz);
  // A host row is re-observed only when something could have changed it:
  // the host stepped this tick, a mutator (or conservative non-const
  // accessor) touched it, or the slack window rolled for everyone. A frozen,
  // untouched host's observables are constant by the quiescence invariant,
  // so its row — and its pods' rows — are copied from the old snapshot.
  std::vector<char> rebuilt(host_count_sz, 0);
  for (std::size_t i = 0; i < host_count_sz; ++i) {
    const HostState& state = hosts_[i];
    const bool stepped = state.host->now() == now_;
    const bool touched = state.view_gen != state.refreshed_gen;
    if (!stepped && !touched && !window_rolled_ &&
        i < old.hosts.size()) {
      cur_.hosts[i] = old.hosts[i];
      ++rows_reused_;
    } else {
      cur_.hosts[i] = host_view(static_cast<int>(i));
      rebuilt[i] = 1;
    }
  }
  cur_.services = old.services;  // keeps copied rows' service indices valid
  cur_.pods.resize(pods_.size());
  for (std::size_t p = 0; p < pods_.size(); ++p) {
    const Pod& pod = pods_[p];
    const PodRow* before = p < old.pods.size() ? &old.pods[p] : nullptr;
    const bool new_host_rebuilt =
        pod.host >= 0 && rebuilt[static_cast<std::size_t>(pod.host)] != 0;
    const bool old_host_rebuilt =
        before != nullptr && before->host >= 0 &&
        before->host < static_cast<int>(host_count_sz) &&
        rebuilt[static_cast<std::size_t>(before->host)] != 0;
    if (before != nullptr && before->host == pod.host && !new_host_rebuilt &&
        !old_host_rebuilt) {
      cur_.pods[p] = *before;
      ++rows_reused_;
      continue;
    }
    PodRow row;
    row.id = pod.id;
    row.host = pod.host;
    row.service = cur_.intern_service(service_key(pod));
    row.request_millicpu = pod.spec.resources.request_millicpu;
    row.request_memory = pod.spec.resources.request_memory;
    row.running = pod.running();
    row.in_flight = pod.in_flight();
    row.failed = pod.failed;
    row.placed_at = pod.placed_at;
    if (pod.running()) {
      // Safe without syncing: committed bytes are constant while frozen.
      row.committed = hosts_[static_cast<std::size_t>(pod.host)]
                          .host->memory()
                          .committed(pod.container->cgroup());
    }
    if (profiles_ != nullptr) {
      const PodProfile profile = profiles_->profile(pod.id);
      row.cpu_p50_millicpu = profile.cpu_p50_millicpu;
      row.cpu_p95_millicpu = profile.cpu_p95_millicpu;
      row.mem_p50 = profile.mem_p50;
      row.mem_p95 = profile.mem_p95;
      row.burst_permille = profile.burst_permille;
      row.samples = profile.samples;
    }
    cur_.pods[p] = row;
  }
  cur_.rebuild_pod_index();
}

}  // namespace arv::cluster
