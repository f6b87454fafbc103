// RequestRouter — the fleet's front door.
//
// Generates an open-loop request stream (like the per-server generators in
// server_runtime, but cluster-wide) and routes each request to one replica's
// WorkerPoolServer via inject_request. The balancing rule is
// join-shortest-queue over the replicas that are currently admitting; ties go
// to the lowest replica index, so routing consumes no randomness and cannot
// perturb placement's rng stream.
//
// Replicas are pods (by id), not raw server pointers: a migrating replica
// simply drops out of rotation during its freeze and rejoins when it lands,
// and its request history survives in Pod::archived. A request that arrives
// while *no* replica is up counts as unroutable (the fleet-level error the
// paper's per-host metrics cannot see).
//
// Failure handling (see docs/FAULTS.md): a refused injection (accept-queue
// overflow) is retried on the next-best replica, up to `max_retries` extra
// attempts per request. Each replica carries a circuit breaker —
// closed → open after `breaker_threshold` consecutive refusals, open →
// half-open after `breaker_open` elapses (one probe request), half-open →
// closed on a served probe or back to open on a refused one. When replicas
// exist but every one is dead-or-open, the request is *shed* at the front
// door, so "the fleet has no replicas" (unroutable) and "the fleet is
// protecting itself" (shed) stay distinguishable. Every decision is
// counter-driven: routing consumes no randomness even under faults.
//
// Overload (see overload.h and docs/FAULTS.md): with an AdmissionController
// attached, every generated request first passes its front door (criticality
// shedding → rejected), retries draw on a
// fleet-wide budget refilled by successes, and while the controller holds
// brownout every routed request is served as a degraded (cheaper) response.
#pragma once

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/telemetry.h"
#include "src/sim/engine.h"

namespace arv::cluster {

class AdmissionController;

struct RouterConfig {
  /// Open-loop arrival rate across the whole fleet.
  double arrivals_per_sec = 800;
  /// Extra attempts after a refused injection (0 disables retry).
  int max_retries = 2;
  /// Consecutive refusals that open a replica's circuit breaker.
  int breaker_threshold = 5;
  /// How long an open breaker blocks a replica before one probe request is
  /// let through (half-open).
  SimDuration breaker_open = 500 * units::msec;

  /// Copy with every out-of-range knob clamped to its nearest legal value
  /// (negative rate/retries → 0, threshold < 1 → 1, non-positive
  /// breaker_open → the default). The constructor applies this, so a bad
  /// config degrades to a sane one instead of corrupting breaker state.
  RouterConfig validated() const;
};

/// One replica's circuit-breaker state (closed admits, open blocks,
/// half-open admits a single probe).
enum class BreakerState { kClosed, kOpen, kHalfOpen };

class RequestRouter : public sim::TickComponent {
 public:
  RequestRouter(Cluster& cluster, RouterConfig config = {});

  /// Add a pod to the rotation. The pod's workload must expose a
  /// request_sink (see PodWorkload); pods without one are rejected.
  /// Duplicate pod ids are rejected (false): enrolling the same replica
  /// twice would double its arrivals and corrupt JSQ + aggregate stats.
  bool add_replica(int pod_id);

  /// Change the open-loop arrival rate mid-run (diurnal curves, flash
  /// crowds). The fractional accumulator carries over, so rate changes never
  /// create or destroy requests. Negative rates clamp to zero.
  void set_rate(double arrivals_per_sec);
  double rate() const { return config_.arrivals_per_sec; }

  /// Open-loop external injection (the workload engine's front door): one
  /// request arriving `now` with its own CPU cost (0 = the replica's default
  /// service_cpu). Exactly the same disposition pipeline as self-generated
  /// arrivals — retries, breakers, shed/unroutable accounting all apply.
  void inject(SimTime now, CpuTime cost = 0) { route_one(now, cost); }

  /// Batched per-tick injection: `costs[0..n)` requests all arriving `now`,
  /// each routed exactly as inject() would (every request reads
  /// cluster.fleet_view(), which rebuilds only if the fleet changed). The
  /// candidate scratch is pooled, so the batch allocates nothing per request
  /// (the million-requests-per-sim-day fast path).
  void inject_batch(SimTime now, const CpuTime* costs, std::size_t n);

  /// Replicas currently enrolled (live or not; rotation never shrinks).
  int replica_count() const { return static_cast<int>(replicas_.size()); }
  /// Pod id of the i-th enrolled replica (rotation order).
  int replica_pod(int index) const {
    return replicas_.at(static_cast<std::size_t>(index)).pod;
  }
  /// Replicas the shared fleet snapshot shows running with a live sink — the
  /// denominator of the overload controller's queue-pressure signal.
  int live_replicas() const;

  /// Bind the front-door overload controller (see overload.h): every
  /// generated request passes its admission gate, retries draw on its
  /// fleet-wide budget, and routed requests are served degraded while it
  /// holds brownout. `slot` is this router's tenant slot in the controller.
  void attach_admission(AdmissionController* admission, int slot);

  const RouterConfig& config() const { return config_; }

  // --- sim::TickComponent (dispatched by Cluster) ---------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.router"; }
  SimDuration tick_period() const override { return 0; }  // every tick

  // --- per-request dispositions (sum to generated()) ------------------------
  // generated == admitted + rejected, and
  // admitted == routed + dropped + unroutable + shed (without an admission
  // controller every request is admitted, so the old identity still holds).
  std::uint64_t generated() const { return generated_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t routed() const { return routed_; }
  std::uint64_t unroutable() const { return unroutable_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t shed() const { return shed_; }
  /// Routed requests served as brownout (degraded) responses; <= routed().
  std::uint64_t degraded() const { return degraded_; }
  // --- attempt-level accounting ---------------------------------------------
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t retries() const { return retries_; }
  // --- breaker telemetry ----------------------------------------------------
  std::uint64_t breaker_trips() const { return breaker_trips_; }
  std::uint64_t breaker_closes() const { return breaker_closes_; }
  BreakerState breaker(int pod_id) const;
  int open_breakers() const;

  /// Fleet-wide request stats: every replica's live sink merged with the
  /// history harvested across migrations (Pod::archived).
  server::RequestStats aggregate() const;

  /// Sum of the live replicas' accept-queue depths (requests routed but not
  /// yet completed and not lost to a teardown).
  std::uint64_t queued() const;

 private:
  struct Replica {
    int pod = -1;
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    SimTime open_until = 0;
  };

  server::WorkerPoolServer* sink(int pod_id) const;
  void route_one(SimTime now, CpuTime cost = 0);
  void record_success(Replica& replica);
  void record_failure(Replica& replica, SimTime now);
  /// Breaker gate for this attempt; promotes open → half-open when due.
  bool admits(Replica& replica, SimTime now);

  Cluster& cluster_;
  RouterConfig config_;
  AdmissionController* admission_ = nullptr;
  int admission_slot_ = -1;
  std::vector<Replica> replicas_;  ///< rotation order = add order
  /// Candidate scratch reused across route_one calls (capacity persists, so
  /// routing a request allocates nothing once the rotation is warm).
  std::vector<std::size_t> candidates_;
  double accumulator_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t routed_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t attempts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t breaker_trips_ = 0;
  std::uint64_t breaker_closes_ = 0;
  Telemetry telemetry_;  ///< router.* trace series
};

}  // namespace arv::cluster
