// Cluster — a multi-host fleet on one deterministic clock.
//
// N simulated Hosts advance in lockstep on the calling thread. Every cluster
// tick runs two kinds of phase (see DESIGN.md §11):
//
//   1. The *host phase*: each awake host's engine advances one tick, in
//      index order. Hosts are independent within a tick (nothing crosses
//      host boundaries until the serial phases). Hosts that are provably
//      quiescent (Host::quiescent) are skipped entirely: their clock freezes
//      and the interval is replayed analytically on first touch
//      (sync-on-touch). A frozen host costs no per-tick work: it is off the
//      awake list, its slack is read in closed form (host_slack_total) and
//      its fleet row is left alone until something marks it stale.
//      The touch contract: a host's clock moves only in host_phase (a
//      step) and sync_host (a touch, which wakes it), so between steps a
//      host is on the awake list exactly when its clock equals cluster time.
//   2. The *serial phases*, in a fixed order: the slack window roll, due
//      pod migrations, the FleetView snapshot refresh (fleet_view.h — the
//      one cluster-state object placement and the control loops read),
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
  /// Record the cluster-wide trace (per-host slack/free-mem/pods, migration
  /// and routing counters). Observation-only, like host tracing.
  bool enable_tracing = false;
  SimDuration trace_interval = 100 * units::msec;
  /// Skip hosts whose tick would provably be a no-op (Host::quiescent):
  /// their clock freezes and catches up analytically on first touch, and
  /// the host phase walks only the awake hosts. Exact by construction —
  /// traces are identical with the skip on or off; the flag exists so tests
  /// can pin that equivalence against stepping every host every tick.
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

/// A running pod's cumulative cgroup counters (Cluster::pod_counters).
struct PodCounters {
  CpuTime total_usage = 0;  ///< CPU time granted since the container started
  Bytes committed = 0;      ///< resident plus swapped bytes
  bool oom_killed = false;
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
  /// costs only a row re-observe — see fleet_view().
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
  /// after all hosts advanced each tick by the cluster's own sim::Engine:
  /// first due on the next tick, then per its tick_period(), components due
  /// on the same tick in registration order. Call between steps or from a
  /// component's tick(). Not owned.
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

  /// A running pod's counters, read without syncing its host or marking its
  /// fleet row: the read path of the per-round observers (profile store,
  /// VPA, rebalancer, restart manager). Exact for a frozen host, whose
  /// usage and memory do not move while it is frozen (advance_idle credits
  /// only idle slack).
  PodCounters pod_counters(int pod_id) const;

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

  /// The shared cluster snapshot (DESIGN.md §13): per-host effective views,
  /// assembled in the serial phase, plus read-only references to the live
  /// pods and the attached ProfileStore. Lazily refreshed — if any host
  /// was marked stale since the last refresh (it stepped, was touched or
  /// mutated, or its slack window changed), exactly those rows are
  /// re-observed in place first, so the returned view is always current.
  /// This is what placement, the detector, the autoscalers and the
  /// rebalancer read; consumers that place several pods in one round copy
  /// it and claim() each landing. Serial phases only.
  const FleetView& fleet_view();

  /// Host rows a refresh left in place instead of re-observing, cumulative
  /// over every refresh (one per step, plus each mid-round fleet_view()
  /// that found stale rows). A window roll re-observes only the hosts whose
  /// slack window changed. Not traced: the count varies with the idle-skip
  /// setting.
  std::uint64_t fleet_rows_reused() const { return rows_reused_; }

  /// Force the next fleet_view() to re-observe every host row — the full
  /// rebuild the incremental refresh is tested against.
  void invalidate_fleet_view();

  /// Attach (or detach, with nullptr) the ProfileStore the snapshot points
  /// at. Called by ProfileStore's constructor/destructor.
  void attach_profiles(const ProfileStore* profiles) { cur_.profiles = profiles; }
  const ProfileStore* profiles() const { return cur_.profiles; }

  /// The published per-host arena — the snapshot's host rows, refreshed at
  /// the tick boundary (and whenever a consumer pulled a fresh fleet_view()
  /// mid-round). Per-round readers that want the boundary view without
  /// forcing a refresh (the rebalancer's capacity scan, the autoscaler's
  /// slack band, the trace) read this. Empty until the first step.
  const std::vector<HostView>& views() const { return cur_.hosts; }

  // --- host phase -----------------------------------------------------------
  /// Cumulative count of host-ticks skipped by the quiescence fast path:
  /// hosts minus hosts stepped, per host phase. Deterministic: a host's
  /// skip decision depends only on its own state.
  std::uint64_t hosts_skipped() const { return hosts_skipped_; }

  /// The awake hosts, in listing order. Read without syncing any host, so
  /// tests can check the touch contract.
  const std::vector<int>& awake_hosts() const { return awake_; }

  /// Cumulative wall-clock time spent in the host phase, and the number of
  /// cluster steps taken — the benchmark signal.
  std::int64_t host_phase_wall_us() const { return host_phase_wall_ns_ / 1000; }
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
    /// Slack observation window (see window_slack()): the last completed
    /// window's idle CPU time, and host_slack_total() at its roll.
    CpuTime window_slack = 0;
    CpuTime slack_at_roll = 0;
    /// Set, and the host listed in stale_rows_, by anything that may have
    /// changed the host's fleet row: a step, a touch, a mutation or a
    /// changed window_slack. Cleared by the fleet refresh, which re-observes
    /// exactly the listed rows.
    bool row_stale = false;
  };
  struct PendingMigration {
    SimTime due = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break at equal due times
    int pod = -1;
  };

  void host_phase();
  /// Catch a frozen host's clock up to cluster time and wake it (no-op when
  /// current). Serial phases only.
  void sync_host(int index);
  void mark_host_dirty(int index) {
    HostState& state = hosts_.at(static_cast<std::size_t>(index));
    if (!state.row_stale) {
      state.row_stale = true;
      stale_rows_.push_back(index);
    }
  }
  /// At each window boundary, close every host's slack window.
  void roll_slack_window();
  /// Bring the fleet snapshot up to cluster time: re-observe the listed
  /// stale rows in place; every other row stays as it is.
  void refresh_fleet();
  /// Add (sign = +1) or release (sign = -1) a pod's declared requests on a
  /// host's ledger.
  void book(int host_index, const PodSpec& spec, int sign);
  /// Cancel the pod's pending migration landing, if any.
  void cancel_flight(int pod_id);
  /// The /sys/arv/fleet/pods file body, rendered from the live pods.
  std::string render_pods() const;
  void settle_migrations();
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
  /// In ns: rounding each µs-scale phase to whole µs would read low.
  std::int64_t host_phase_wall_ns_ = 0;
  std::uint64_t steps_ = 0;
  /// The fleet snapshot, refreshed in place.
  FleetView cur_;
  /// Hosts whose row_stale is set, in marking order.
  std::vector<int> stale_rows_;
  /// The awake list: each host at cluster time, once (the touch
  /// contract). Not merged with stale_rows_: a slack roll marks rows stale
  /// without waking any host.
  std::vector<int> awake_;
  std::uint64_t rows_reused_ = 0;
  std::vector<HostState> hosts_;
  std::vector<Pod> pods_;
  std::vector<PendingMigration> pending_;
  std::uint64_t next_migration_seq_ = 0;
  /// Dispatches the cluster-level components; its clock follows now_.
  sim::Engine components_;
  std::uint64_t migrations_ = 0;
  std::uint64_t pod_crashes_ = 0;
  std::uint64_t host_crashes_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t failovers_ = 0;
  std::unique_ptr<obs::TraceRecorder> trace_;  ///< null when tracing is off
};

}  // namespace arv::cluster
