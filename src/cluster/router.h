// RequestRouter — the fleet's front door.
//
// Generates an open-loop request stream (like the per-server generators in
// server_runtime, but cluster-wide) and routes each request to one replica's
// WorkerPoolServer via inject_request. The balancing rule is
// join-shortest-queue over the live replicas; ties go to the lowest replica
// index, so routing consumes no randomness and cannot perturb placement's rng
// stream.
//
// Replicas are pods (by id), not raw server pointers: a migrating replica
// simply drops out of rotation during its freeze and rejoins when it lands,
// and its request history survives in Pod::archived. A request that arrives
// while *no* replica is up counts as unroutable (the fleet-level error the
// paper's per-host metrics cannot see).
//
// Failure handling (see docs/FAULTS.md): a refused injection (accept-queue
// overflow) is retried on the next-best replica, up to `max_retries` extra
// attempts per request, never on a replica already tried for it. Every
// decision is counter-driven: routing consumes no randomness even under
// faults. Each request ends in exactly one disposition:
// generated == routed + dropped + unroutable.
//
// Overload (see overload.h and docs/FAULTS.md): with an AdmissionController
// attached, retries draw on a fleet-wide budget refilled by successes, and
// the controller bounds each replica's accept queue with an AIMD limit.
#pragma once

#include <cstdint>
#include <string>
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

  /// Compatibility: delete in the benchmark PR. perfbench/src/fleet.cpp
  /// still sets it; nothing reads it, and nothing else may set it.
  int breaker_threshold = 5;

  /// Copy with every out-of-range knob clamped to its nearest legal value
  /// (a negative or non-finite rate → 0, negative retries → 0). The
  /// constructor applies this, so a bad config degrades to a sane one.
  RouterConfig validated() const;
};

class RequestRouter : public sim::TickComponent {
 public:
  /// `tenant` scopes the router's trace series ("api.router.generated");
  /// empty keeps the bare names, for a fleet with one router.
  RequestRouter(Cluster& cluster, RouterConfig config = {},
                const std::string& tenant = {});

  /// Add a pod to the rotation. The pod's workload must expose a
  /// request_sink (see PodWorkload); pods without one are rejected.
  /// Duplicate pod ids are rejected (false): enrolling the same replica
  /// twice would double its arrivals and corrupt JSQ + aggregate stats.
  bool add_replica(int pod_id);

  /// Change the open-loop arrival rate mid-run (diurnal curves, flash
  /// crowds). The fractional accumulator carries over, so rate changes never
  /// create or destroy requests. Negative and non-finite rates clamp to zero.
  void set_rate(double arrivals_per_sec);
  double rate() const { return config_.arrivals_per_sec; }

  /// Open-loop external injection (the workload engine's front door): one
  /// request arriving `now` with its own CPU cost (0 = the replica's default
  /// service_cpu). Exactly the same disposition pipeline as self-generated
  /// arrivals — retries and dropped/unroutable accounting all apply.
  void inject(SimTime now, CpuTime cost = 0) { route_one(now, cost); }

  /// Batched per-tick injection: `costs[0..n)` requests all arriving `now`,
  /// each routed exactly as inject() would. The candidate scratch is pooled,
  /// so the batch allocates nothing per request (the
  /// million-requests-per-sim-day fast path).
  void inject_batch(SimTime now, const CpuTime* costs, std::size_t n);

  /// Replicas currently enrolled (live or not; rotation never shrinks).
  int replica_count() const { return static_cast<int>(replicas_.size()); }
  /// Pod id of the i-th enrolled replica (rotation order).
  int replica_pod(int index) const {
    return replicas_.at(static_cast<std::size_t>(index));
  }
  /// Bind the overload controller (see overload.h): retries draw on its
  /// fleet-wide budget, and every routed request refills it.
  void attach_admission(AdmissionController* admission);

  const RouterConfig& config() const { return config_; }

  // --- sim::TickComponent (dispatched by Cluster) ---------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.router"; }
  SimDuration tick_period() const override { return 0; }  // every tick

  // --- per-request dispositions ---------------------------------------------
  // generated == routed + dropped + unroutable.
  std::uint64_t generated() const { return generated_; }
  std::uint64_t routed() const { return routed_; }
  std::uint64_t unroutable() const { return unroutable_; }
  std::uint64_t dropped() const { return dropped_; }
  // --- attempt-level accounting ---------------------------------------------
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t retries() const { return retries_; }

  /// Fleet-wide request stats: every replica's live sink merged with the
  /// history harvested across migrations (Pod::archived).
  server::RequestStats aggregate() const;

  /// Sum of the live replicas' accept-queue depths (requests routed but not
  /// yet completed and not lost to a teardown).
  std::uint64_t queued() const;

  // --- compatibility: delete in the benchmark PR -----------------------------
  // perfbench/src/fleet.cpp still calls these; nothing else may. They hold no
  // state: the front door admits every request and never sheds.
  std::uint64_t admitted() const { return generated(); }
  std::uint64_t rejected() const { return 0; }
  std::uint64_t shed() const { return 0; }

 private:
  server::WorkerPoolServer* sink(int pod_id) const;
  void route_one(SimTime now, CpuTime cost = 0);

  Cluster& cluster_;
  RouterConfig config_;
  AdmissionController* admission_ = nullptr;
  std::vector<int> replicas_;  ///< pod ids; rotation order = add order
  /// Candidate scratch reused across route_one calls (capacity persists, so
  /// routing a request allocates nothing once the rotation is warm).
  std::vector<int> candidates_;
  double accumulator_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t routed_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t attempts_ = 0;
  std::uint64_t retries_ = 0;
  Telemetry telemetry_;  ///< router.* trace series
};

}  // namespace arv::cluster
