// Deterministic fault injection for the cluster layer.
//
// A FaultPlan is a fixed schedule of fault events — host crashes (with an
// optional reboot delay), pod process crashes, host-memory pressure spikes
// (pin RAM outside every cgroup so kswapd/OOM regimes engage), and
// Ns_Monitor stalls (the view daemon wedges; containers read stale views
// until it recovers and catches up in one round). Plans can be written by
// hand or drawn from the cluster's Rng (FaultPlan::random), and the same
// seed + plan always produces the byte-identical cluster trace: the
// injector consumes no randomness at fire time, events fire in (time,
// insertion) order, and recoveries (reboot, pressure release, un-stall) are
// applied before new events each tick, in host order.
//
// The injector only *breaks* things. Recovery of the pods themselves is the
// job of recovery.h (FailureDetector, RestartManager); docs/FAULTS.md has
// the full fault model.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/telemetry.h"
#include "src/sim/engine.h"
#include "src/util/rng.h"

namespace arv::cluster {

struct FaultEvent {
  enum class Kind {
    kHostCrash,       ///< crash `host`; reboot after `duration` (0 = never)
    kPodCrash,        ///< kill `pod`'s process (no-op if not running)
    kMemoryPressure,  ///< reserve `bytes` of host RAM for `duration`
    kMonitorStall,    ///< wedge `host`'s Ns_Monitor for `duration`
  };

  Kind kind = Kind::kPodCrash;
  SimTime at = 0;
  int host = -1;  ///< kHostCrash / kMemoryPressure / kMonitorStall
  int pod = -1;   ///< kPodCrash
  /// Reboot delay / pressure hold / stall length. 0 means the fault is
  /// permanent (the host never self-reboots, the pressure/stall never
  /// lifts) — recovery must come from elsewhere (reboot_host, chaos end).
  SimDuration duration = 0;
  /// kMemoryPressure reservation. Absolute bytes, or — when bytes == 0 —
  /// `permille` of the target host's RAM, resolved at fire time (randomized
  /// plans are built before they meet a concrete fleet). Clamped to RAM.
  Bytes bytes = 0;
  int permille = 0;
};

/// Knobs for FaultPlan::random. Event times are uniform over [0, horizon);
/// durations and sizes uniform over their ranges. Everything integer, so a
/// plan is a pure function of the rng state.
struct ChaosOptions {
  SimDuration horizon = 10 * units::sec;
  int host_crashes = 1;
  int pod_crashes = 3;
  int pressure_spikes = 2;
  int monitor_stalls = 2;
  SimDuration min_reboot = 500 * units::msec;
  SimDuration max_reboot = 3 * units::sec;
  SimDuration min_hold = 200 * units::msec;  ///< pressure / stall durations
  SimDuration max_hold = 2 * units::sec;
  /// Pressure reservation as permille of the target host's RAM.
  int min_pressure_permille = 700;
  int max_pressure_permille = 950;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& add(FaultEvent event);

  /// Draw a randomized plan for a fleet of `host_count` hosts and
  /// `pod_count` pods. Deterministic in the rng state; the generated events
  /// are not sorted — the injector fires same-time events in plan order.
  static FaultPlan random(Rng& rng, const ChaosOptions& options,
                          int host_count, int pod_count);
};

/// Replays a FaultPlan against a Cluster as a cluster-level TickComponent.
class FaultInjector : public sim::TickComponent {
 public:
  /// Registers `faults.injected` / `faults.skipped` with the cluster trace
  /// when tracing is on. Events are stably sorted by time, so same-time
  /// events keep plan order.
  FaultInjector(Cluster& cluster, FaultPlan plan);

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.fault_injector"; }
  SimDuration tick_period() const override { return 0; }  // every tick

  /// Events fired so far (a skipped event — crashing an already-down host,
  /// a pod that is not running — counts as skipped, not injected).
  std::uint64_t injected() const { return injected_; }
  std::uint64_t skipped() const { return skipped_; }
  /// True once every event fired and every recovery (reboot, pressure
  /// release, un-stall) has been applied — the plan is fully drained.
  bool done() const;

 private:
  void fire(const FaultEvent& event, SimTime now);
  void recover(SimTime now);

  Cluster& cluster_;
  std::vector<FaultEvent> events_;  ///< stably sorted by `at`
  std::size_t next_event_ = 0;
  // Pending recoveries, one slot per host per fault kind; map iteration is
  // host order, so recovery application is deterministic.
  std::map<int, SimTime> reboot_at_;
  std::map<int, SimTime> pressure_until_;
  std::map<int, SimTime> stall_until_;
  std::uint64_t injected_ = 0;
  std::uint64_t skipped_ = 0;
  Telemetry telemetry_;  ///< faults.* trace series
};

}  // namespace arv::cluster
