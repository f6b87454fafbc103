// Overload control plane — the two guards behind the fleet's front door.
//
// The open-loop workload engine (src/load) can offer arbitrarily more load
// than the fleet's effective capacity. A fleet-wide flash crowd plus a
// failover then produces the classic metastable collapse: queues bloat,
// latency explodes past every deadline, retries multiply offered load, and
// goodput stays collapsed even after the trigger passes. The
// AdmissionController holds the two guards that keep goodput flat past
// saturation, for every RequestRouter (tenant) registered with it:
//
//   1. Retry budget — one fleet-wide token bucket refilled as a fraction of
//      *successful* requests (Finagle-style, 10%). Every retry
//      beyond a request's first attempt spends a token; when the budget is
//      dry the router gives up instead of amplifying. Under total brown-off
//      a small per-round floor re-arms so probing never stops entirely.
//
//   2. Adaptive per-replica concurrency limits — an AIMD limit on each
//      WorkerPoolServer's accept queue, grown additively while the round's
//      observed p50 stays near the trailing minimum and cut multiplicatively
//      when it drifts, so the queue bound tracks what the replica can
//      actually serve. The bounded queue is what turns overload into the
//      fast, local refusals that JSQ and the router's retries react to —
//      instead of a 10k-deep queue silently absorbing minutes of doomed work.
//
// The controller admits every request: nothing is refused at the front door
// before a replica is tried.
//
// Determinism: the controller mutates only inside serial phases — its own
// tick() and the routers' inject_batch() calls (driver injection and router
// ticks are serial-phase components). All arithmetic is integer (the retry
// budget counts milli-tokens), so cluster traces stay byte-identical run to
// run. Telemetry surfaces as overload.* trace series and /sys/arv/admission/
// control files on the designated control host.
//
// The budget and AIMD settings are constants in overload.cpp: no workload
// sets them.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/router.h"
#include "src/cluster/telemetry.h"
#include "src/sim/engine.h"
#include "src/util/latency_histogram.h"

namespace arv::cluster {

/// Compatibility: delete in the benchmark PR. perfbench/src/fleet.cpp still
/// passes `AdmissionConfig{}` to the constructor; it holds nothing.
struct AdmissionConfig {};

class AdmissionController : public sim::TickComponent {
 public:
  explicit AdmissionController(Cluster& cluster, AdmissionConfig = {});
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Enroll one tenant (= one RequestRouter): its retries draw on the
  /// fleet-wide budget and its replicas get AIMD limits. Tenants registered
  /// earlier are visited first each round — registration order is part of
  /// the deterministic contract.
  void register_tenant(const std::string& name, RequestRouter& router);

  // --- router-facing gates (serial phase only) -------------------------------
  /// Spend one retry token; false = budget dry, give up.
  bool allow_retry();
  /// A request was routed successfully: refill the retry budget.
  void on_success();

  // --- sim::TickComponent ----------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.admission"; }
  SimDuration tick_period() const override;

  // --- telemetry -------------------------------------------------------------
  std::uint64_t retries_allowed() const { return retries_allowed_; }
  std::uint64_t retries_denied() const { return retries_denied_; }
  std::int64_t retry_tokens_milli() const { return retry_tokens_milli_; }
  /// Sum of the AIMD queue limits applied to live replicas last round.
  std::int64_t queue_limit_total() const { return queue_limit_total_; }

  // --- compatibility: delete in the benchmark PR -----------------------------
  // perfbench/src/fleet.cpp still calls these; nothing else may. They hold no
  // state and do nothing: the front door no longer classes, sheds or rejects.
  std::uint64_t rejected() const { return 0; }
  std::uint64_t brownout_entries() const { return 0; }
  void set_criticality(const std::string& /*name*/, int /*criticality*/) {}

 private:
  struct Tenant {
    std::string name;
    RequestRouter* router = nullptr;
  };

  /// AIMD state for one replica pod.
  struct LimitState {
    util::LatencyHistogram prev;  ///< last round's cumulative snapshot
    std::deque<std::int64_t> window;  ///< trailing round-p50 minim window
    int limit = 0;                ///< 0 = not yet initialised
  };

  void update_limits();

  Cluster& cluster_;
  std::vector<Tenant> tenants_;
  std::unordered_map<int, LimitState> limits_;  ///< by pod id

  std::int64_t retry_tokens_milli_ = 0;
  std::int64_t queue_limit_total_ = 0;
  std::uint64_t retries_allowed_ = 0;
  std::uint64_t retries_denied_ = 0;

  /// Round snapshot served by the /sys/arv/admission/ files: a read between
  /// rounds sees the last completed round, never live mid-round counters.
  struct Snapshot {
    std::uint64_t retries_denied = 0;
    std::int64_t retry_tokens_milli = 0;
    std::int64_t queue_limit_total = 0;
  };
  Snapshot snap_;
  Telemetry telemetry_;  ///< /sys/arv/admission/
};

/// Compatibility: delete in the benchmark PR. perfbench/src/fleet.cpp
/// still passes this to set_criticality(); it carries no class.
inline int criticality_for_slo(std::int64_t /*availability_permille*/) {
  return 0;
}

}  // namespace arv::cluster
