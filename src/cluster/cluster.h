// Cluster — a multi-host fleet on one deterministic clock.
//
// N simulated Hosts advance in lockstep on the calling thread. Every cluster
// tick runs two kinds of phase (see DESIGN.md §11):
//
//   1. The *host phase*: each host's engine advances one tick, in index
//      order. Hosts are independent within a tick (nothing crosses host
//      boundaries until the serial phases). Hosts that are provably
//      quiescent (Host::quiescent) are skipped entirely: their clock freezes
//      and the interval is replayed analytically on first touch
//      (sync-on-touch).
//   2. The *serial phases*, in a fixed order: slack window accounting, due
//      pod migrations, the FleetView snapshot refresh (fleet_view.h — the
//      one cluster-state object every fleet-wide consumer reads),
//      cluster-level components (rebalancer, router, fault machinery), and
//      the trace sample. Every serial stage iterates hosts and pods in index
//      order.
//
// Every cross-host interaction happens in the index-ordered serial phases,
// and the skip is exact, so the same configuration and seed produce
// byte-identical cluster traces with the skip on or off and on any machine:
// the same determinism contract the single-host layer pins with golden
// traces. There is no thread pool: the paper's mechanism is per host, and
// stepping hosts on worker threads measured slower than this loop at every
// fleet size tried (DESIGN.md §11).
//
// The cluster owns the pods. A Pod couples a Kubernetes-style spec with the
// container currently realising it and the workload object running inside;
// migration is the Docker-era recipe (no live pre-copy): stop the container
// on the source, pay a freeze proportional to its committed memory, recreate
// the same cgroup configuration on the target, and re-create the workload
// from the pod's factory.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/fleet_view.h"
#include "src/container/container.h"
#include "src/container/host.h"
#include "src/obs/trace_recorder.h"
#include "src/server/server_runtime.h"
#include "src/sim/engine.h"
#include "src/util/rng.h"

namespace arv::server {
class WorkerPoolServer;
}

namespace arv::cluster {

/// The workload running inside a pod's container. Implementations own
/// whatever Schedulable they attach (a server, a hog); destroying the object
/// must detach it, because migration destroys and re-creates workloads.
class PodWorkload {
 public:
  virtual ~PodWorkload() = default;

  /// Non-null when the workload serves an open-loop request stream the
  /// RequestRouter can target.
  virtual server::WorkerPoolServer* request_sink() { return nullptr; }
};

/// Builds a pod's workload inside a freshly-created container. Called once
/// at placement and again after every migration, so factories must be
/// re-invocable.
using WorkloadFactory =
    std::function<std::unique_ptr<PodWorkload>(container::Host&,
                                               container::Container&)>;

/// The designated control-plane host: its sysfs serves the cluster-level
/// /sys/arv/ files (the fleet snapshot and every control loop's directory).
constexpr int kControlHost = 0;

struct ClusterConfig {
  /// Shared tick length; every added host must be configured with the same.
  SimDuration tick = 1 * units::msec;
  /// Seeds the rng used for placement score tie-breaks.
  std::uint64_t seed = 42;
  /// Migration cost model: freeze = base + committed_bytes / bandwidth.
  SimDuration migration_freeze = 50 * units::msec;
  /// Record the cluster-wide trace (per-host slack/free-mem/pods, migration
  /// and routing counters). Observation-only, like host tracing.
  bool enable_tracing = false;
  SimDuration trace_interval = 100 * units::msec;
  /// Skip hosts whose tick would provably be a no-op (Host::quiescent):
  /// their clock freezes and catches up analytically on first touch. Exact
  /// by construction — traces are identical with the skip on or off; the
  /// flag exists so tests can pin that equivalence.
  bool skip_idle_hosts = true;
};

/// One scheduled pod. The container pointer is null while the pod is in
/// flight between hosts (migration freeze), after stop_pod, or after a
/// crash (failed == true, awaiting restart-in-place or failover).
struct Pod {
  int id = -1;
  PodSpec spec;
  int host = -1;  ///< current (or in-flight target) host; -1 once stopped
  container::Container* container = nullptr;  ///< owned by the host's runtime
  std::unique_ptr<PodWorkload> workload;
  WorkloadFactory factory;
  int migrations = 0;
  SimTime placed_at = 0;  ///< when the pod last landed on a host
  /// Request stats harvested from sinks that migration (or stop) destroyed,
  /// so fleet-level throughput/latency survive replica churn.
  server::RequestStats archived;
  /// The pod's process (or host) crashed; its host-ledger slot is retained
  /// until a RestartManager re-lands it in place or a FailureDetector fails
  /// it over to another host.
  bool failed = false;
  int restarts = 0;    ///< restart-in-place count (CrashLoopBackOff counter)
  int failovers = 0;   ///< crashes recovered by re-placement on another host
  SimTime crashed_at = 0;  ///< when the pod last crashed
  /// Requests that were queued (accepted, not yet completed) in a sink when
  /// its teardown — migration, stop, or crash — destroyed them.
  std::uint64_t lost = 0;

  bool running() const { return container != nullptr; }
  bool in_flight() const { return container == nullptr && host >= 0 && !failed; }
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- fleet topology (before run) -----------------------------------------
  /// Add one simulated machine; returns its index. `host_config.tick` must
  /// equal the cluster tick, and hosts must be added before time advances.
  int add_host(container::HostConfig host_config = {});

  int host_count() const { return static_cast<int>(hosts_.size()); }

  /// Access a host (or its runtime). Syncs a frozen host's clock first
  /// (sync-on-touch), so callers always observe a host at cluster time —
  /// the single serialization point the fault machinery relies on. The
  /// non-const overloads conservatively mark the host's fleet row stale
  /// (the caller may mutate anything behind the reference); over-marking
  /// costs a row rebuild, never a generation bump — see fleet_view().
  container::Host& host(int index) {
    sync_host(index);
    mark_host_dirty(index);
    return *hosts_.at(static_cast<std::size_t>(index)).host;
  }
  container::ContainerRuntime& runtime(int index) {
    sync_host(index);
    mark_host_dirty(index);
    return *hosts_.at(static_cast<std::size_t>(index)).runtime;
  }

  /// Register a cluster-level component (rebalancer, router), dispatched
  /// after all hosts advanced each tick — same TickComponent contract as
  /// sim::Engine (tick_period re-queried after each dispatch, registration
  /// order breaks due-time ties). Not owned.
  void add_component(sim::TickComponent* component);

  // --- time ----------------------------------------------------------------
  SimTime now() const { return now_; }
  void step();
  void run_for(SimDuration duration);

  // --- pods ----------------------------------------------------------------
  /// Create a pod on `host_index` (placement already decided — see
  /// ClusterScheduler). Returns the pod id.
  int create_pod(int host_index, PodSpec spec, WorkloadFactory factory = {});

  /// Stop the pod's container and destroy its workload. Request stats are
  /// harvested into pod.archived first. Also handles in-flight and failed
  /// pods: an in-flight stop cancels the pending landing and releases the
  /// target host's reservation (stats were already harvested at departure).
  void stop_pod(int pod_id);

  /// Stop-and-recreate migration toward `target_host`. The pod is gone from
  /// the source immediately and lands on the target after the freeze
  /// (base + committed/bandwidth); its requests are reserved on the target
  /// for the whole flight so placement cannot double-book the slot.
  void migrate_pod(int pod_id, int target_host);

  Pod& pod(int id) { return pods_.at(static_cast<std::size_t>(id)); }
  const Pod& pod(int id) const { return pods_.at(static_cast<std::size_t>(id)); }
  int pod_count() const { return static_cast<int>(pods_.size()); }
  int pods_on(int host_index) const { return hosts_.at(static_cast<std::size_t>(host_index)).pods; }
  std::uint64_t migrations() const { return migrations_; }

  // --- faults and recovery --------------------------------------------------
  /// Kill every pod on the host (their processes die; stats are harvested
  /// out-of-band, queued requests are lost) and mark the host down. Pods
  /// stay assigned to the host ledger as failed, awaiting restart-in-place
  /// (if the host reboots) or failover (FailureDetector). Migrations in
  /// flight *to* the host are lost the same way. The host's engine keeps
  /// ticking (empty) so the fleet stays in lockstep.
  void crash_host(int host_index);

  /// Bring a crashed host back as an empty machine (fresh boot: any
  /// host-memory reservation from pressure injection is cleared).
  void reboot_host(int host_index);

  bool host_up(int host_index) const {
    return hosts_.at(static_cast<std::size_t>(host_index)).up;
  }

  // --- cordon (cluster autoscaler) -----------------------------------------
  /// Administratively (un)mark a host unschedulable. A cordoned host keeps
  /// ticking and heartbeating — placement strategies just skip it, so it is
  /// parked, not dead. The ClusterAutoscaler "removes" a host by cordoning
  /// and draining it (the fleet's machine count is fixed at t=0; a parked
  /// empty host quiesces, so the skip path makes it nearly free) and "adds"
  /// one by uncordoning a parked machine.
  void cordon_host(int host_index, bool cordoned);

  bool host_cordoned(int host_index) const {
    return hosts_.at(static_cast<std::size_t>(host_index)).cordoned;
  }

  /// Hosts currently up and not cordoned — the schedulable fleet size.
  int active_hosts() const;

  /// Kill one running pod's process (the host stays up). The pod keeps its
  /// ledger slot on the host so a RestartManager can re-land it in place.
  void crash_pod(int pod_id);

  /// Re-create a failed pod's container + workload on its current host
  /// (restart-in-place; the host must be up). Increments pod.restarts.
  void restart_pod(int pod_id);

  /// Re-place a failed pod on `target_host` (which must be up) and land it
  /// immediately — the crashed replica has no state to copy, only a cold
  /// start. Moves the ledger slot and increments pod.failovers.
  void failover_pod(int pod_id, int target_host);

  std::uint64_t pod_crashes() const { return pod_crashes_; }
  std::uint64_t host_crashes() const { return host_crashes_; }
  std::uint64_t restarts() const { return restarts_; }
  std::uint64_t failovers() const { return failovers_; }

  // --- observed state ------------------------------------------------------
  /// The strategy-facing view of one host: declared request sums from the
  /// cluster ledger, observed slack/free-memory from the host subsystems.
  /// Correct for frozen hosts without syncing them (their observables are
  /// constant while frozen).
  HostView host_view(int index) const;

  /// The shared cluster snapshot (DESIGN.md §13): per-host effective views
  /// plus flattened per-pod rows, assembled in the serial phase and
  /// generation-stamped. Lazily refreshed — if anything mutated the fleet
  /// since the last refresh, the snapshot is rebuilt first (reusing rows of
  /// provably-unchanged hosts from the previous snapshot), so the returned
  /// view is always current. The generation advances only when the *content*
  /// changed. This is what every fleet-wide consumer (placement, detector,
  /// autoscalers, router) reads; consumers that place several pods in one
  /// round copy it and claim() each landing. Serial phases only.
  const FleetView& fleet_view();

  /// The snapshot published at the previous tick boundary (what diff renders
  /// against). Empty before the second step.
  const FleetView& previous_fleet_view() const { return prev_; }

  /// The fleet snapshot's content generation: advances only when the
  /// content changed (published as /sys/arv/fleet/generation).
  std::uint64_t fleet_generation() const { return fleet_gen_; }

  /// Host/pod rows copied from the previous snapshot instead of re-observed,
  /// cumulative. Not traced: the count varies with the idle-skip setting.
  std::uint64_t fleet_rows_reused() const { return rows_reused_; }

  /// Force the next fleet_view() to re-observe every row (profile updates,
  /// tests). Never bumps the generation unless content actually changed.
  void invalidate_fleet_view();

  /// Attach (or detach, with nullptr) a ProfileStore whose percentiles the
  /// pod rows carry. Called by ProfileStore's constructor/destructor.
  void attach_profiles(const ProfileStore* profiles);
  const ProfileStore* profiles() const { return profiles_; }

  /// The published per-host arena — cur snapshot's host rows, refreshed at
  /// the tick boundary (and whenever a consumer pulled a fresh fleet_view()
  /// mid-round). Per-round readers that want the boundary view without
  /// forcing a refresh (the rebalancer's capacity scan, the autoscaler's
  /// slack band, the trace) read this. Empty until the first step.
  const std::vector<HostView>& views() const { return cur_.hosts; }

  // --- host phase -----------------------------------------------------------
  /// Cumulative count of host-ticks skipped by the quiescence fast path.
  /// Deterministic: a host's skip decision depends only on its own state.
  std::uint64_t hosts_skipped() const { return hosts_skipped_; }

  /// Cumulative wall-clock time spent in the host phase, and the number of
  /// cluster steps taken — the benchmark signal.
  std::int64_t host_phase_wall_us() const { return host_phase_wall_us_; }
  std::uint64_t steps_taken() const { return steps_; }

  /// Idle CPU time accumulated on the host during the last *completed*
  /// observation window (a fresh host reports a fully idle window).
  CpuTime window_slack(int index) const {
    return hosts_.at(static_cast<std::size_t>(index)).window_slack;
  }

  /// A host's cumulative idle CPU time as of cluster time, frozen hosts
  /// included: the scheduler counter plus an analytic full-capacity credit
  /// for the frozen gap (exactly what advance_idle will add on touch).
  /// Reading this never syncs the host — the cheap path for per-round
  /// slack consumers (rebalancer, trace).
  CpuTime host_slack_total(int index) const;

  Rng& rng() { return rng_; }
  const ClusterConfig& config() const { return config_; }

  /// The cluster trace recorder, or nullptr when tracing is disabled.
  obs::TraceRecorder* trace() { return trace_.get(); }
  const obs::TraceRecorder* trace() const { return trace_.get(); }

 private:
  struct HostState {
    std::unique_ptr<container::Host> host;
    std::unique_ptr<container::ContainerRuntime> runtime;
    // Declared-request ledger over the pods currently on (or in flight to)
    // the host — what the "requests" strategy packs against.
    std::int64_t requested_millicpu = 0;
    Bytes requested_memory = 0;
    int pods = 0;
    /// False between crash_host and reboot_host. A down host accepts no
    /// pods; its engine still ticks (empty) to keep the fleet in lockstep.
    bool up = true;
    /// Administratively unschedulable (see cordon_host). Orthogonal to `up`:
    /// a cordoned host is healthy, so the FailureDetector must not bury it.
    bool cordoned = false;
    // Slack observation window (integer accumulation; see window_slack()).
    CpuTime window_slack = 0;
    CpuTime accum_slack = 0;
    CpuTime last_total_slack = 0;
    /// Fleet-row staleness: view_gen bumps on every (potential) mutation of
    /// this host, refreshed_gen records view_gen at the last row rebuild.
    /// Unequal (or a host that stepped this tick, or a rolled slack window)
    /// => the refresh re-observes the row; equal => the row is copied from
    /// the previous snapshot. Starts unequal so the first refresh builds.
    std::uint64_t view_gen = 1;
    std::uint64_t refreshed_gen = 0;
  };
  struct PendingMigration {
    SimTime due = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break at equal due times
    int pod = -1;
  };
  struct Dispatch {
    sim::TickComponent* component = nullptr;
    SimTime next = 0;
    SimTime last = 0;
  };

  void host_phase();
  /// Catch a frozen host's clock up to cluster time (no-op when current).
  void sync_host(int index);
  void mark_host_dirty(int index) {
    fleet_dirty_ = true;
    ++hosts_.at(static_cast<std::size_t>(index)).view_gen;
  }
  void observe_slack();
  /// Rebuild the fleet snapshot. `boundary` refreshes publish: prev_/cur_
  /// swap so diff() has a stable per-tick baseline. Mid-tick (lazy)
  /// refreshes recycle scratch_ and leave prev_ untouched.
  void refresh_fleet(bool boundary);
  /// Assemble cur_ from live state, copying rows of unchanged hosts (and
  /// their pods) from `old` instead of re-observing them.
  void rebuild_fleet(const FleetView& old);
  void settle_migrations();
  void dispatch_components();
  void land_pod(Pod& pod);
  void harvest_stats(Pod& pod);
  void fail_pod(Pod& pod);
  void register_host_trace(int index);

  ClusterConfig config_;
  Rng rng_;
  SimTime now_ = 0;
  SimDuration window_elapsed_ = 0;
  /// True only while the host phase is stepping hosts. Every topology or
  /// fault mutator asserts it is false: mutations are legal only in the
  /// serial phases, so a host-side callback can never reach one mid-phase
  /// and a crash can never observe a half-stepped fleet.
  bool in_host_phase_ = false;
  std::uint64_t hosts_skipped_ = 0;
  std::int64_t host_phase_wall_us_ = 0;
  std::uint64_t steps_ = 0;
  // Fleet snapshot triple-buffer: cur_ is the live snapshot, prev_ the one
  // published at the previous tick boundary, scratch_ recycles allocations
  // for mid-tick refreshes.
  FleetView cur_;
  FleetView prev_;
  FleetView scratch_;
  std::uint64_t fleet_gen_ = 0;
  bool fleet_dirty_ = true;
  bool window_rolled_ = false;
  std::uint64_t rows_reused_ = 0;
  const ProfileStore* profiles_ = nullptr;
  std::vector<HostState> hosts_;
  std::vector<Pod> pods_;
  std::vector<PendingMigration> pending_;
  std::uint64_t next_migration_seq_ = 0;
  std::vector<Dispatch> components_;
  std::uint64_t migrations_ = 0;
  std::uint64_t pod_crashes_ = 0;
  std::uint64_t host_crashes_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t failovers_ = 0;
  std::unique_ptr<obs::TraceRecorder> trace_;  ///< null when tracing is off
};

}  // namespace arv::cluster
