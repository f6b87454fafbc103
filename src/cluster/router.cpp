#include "src/cluster/router.h"

#include <algorithm>

#include "src/cluster/overload.h"
#include "src/server/server_runtime.h"
#include "src/util/assert.h"

namespace arv::cluster {

RouterConfig RouterConfig::validated() const {
  RouterConfig v = *this;
  v.arrivals_per_sec = std::max(0.0, v.arrivals_per_sec);
  v.max_retries = std::max(0, v.max_retries);
  v.breaker_threshold = std::max(1, v.breaker_threshold);
  if (v.breaker_open <= 0) {
    v.breaker_open = RouterConfig{}.breaker_open;
  }
  return v;
}

RequestRouter::RequestRouter(Cluster& cluster, RouterConfig config)
    : cluster_(cluster), config_(config.validated()), telemetry_(cluster) {
  telemetry_.counter("router.generated", "", generated_);
  telemetry_.counter("router.routed", "", routed_);
  telemetry_.counter("router.unroutable", "", unroutable_);
  telemetry_.counter("router.dropped", "", dropped_);
  telemetry_.counter("router.shed", "", shed_);
  telemetry_.counter("router.retries", "", retries_);
  telemetry_.counter("router.rejected", "", rejected_);
  telemetry_.counter("router.degraded", "", degraded_);
  telemetry_.counter("router.breaker_trips", "", breaker_trips_);
  telemetry_.gauge("router.open_breakers", "",
                   [this] { return open_breakers(); });
}

bool RequestRouter::add_replica(int pod_id) {
  server::WorkerPoolServer* s = sink(pod_id);
  ARV_ASSERT_MSG(s != nullptr || cluster_.pod(pod_id).in_flight(),
                 "replica pod has no request sink");
  const bool duplicate =
      std::any_of(replicas_.begin(), replicas_.end(),
                  [pod_id](const Replica& r) { return r.pod == pod_id; });
  if (duplicate) {
    return false;  // already in rotation; double arrivals would corrupt JSQ
  }
  Replica replica;
  replica.pod = pod_id;
  replicas_.push_back(replica);
  return true;
}

void RequestRouter::set_rate(double arrivals_per_sec) {
  config_.arrivals_per_sec = std::max(0.0, arrivals_per_sec);
}

void RequestRouter::attach_admission(AdmissionController* admission, int slot) {
  ARV_ASSERT_MSG(admission_ == nullptr || admission == admission_,
                 "router already has an admission controller");
  admission_ = admission;
  admission_slot_ = slot;
}

int RequestRouter::live_replicas() const {
  const FleetView& fleet = cluster_.fleet_view();
  int live = 0;
  for (const Replica& replica : replicas_) {
    if (replica.pod < fleet.pod_count() &&
        fleet.pods[static_cast<std::size_t>(replica.pod)].running &&
        sink(replica.pod) != nullptr) {
      ++live;
    }
  }
  return live;
}

server::WorkerPoolServer* RequestRouter::sink(int pod_id) const {
  Pod& pod = cluster_.pod(pod_id);
  return pod.workload == nullptr ? nullptr : pod.workload->request_sink();
}

BreakerState RequestRouter::breaker(int pod_id) const {
  for (const Replica& replica : replicas_) {
    if (replica.pod == pod_id) {
      return replica.state;
    }
  }
  ARV_ASSERT_MSG(false, "pod is not a replica of this router");
  return BreakerState::kClosed;
}

int RequestRouter::open_breakers() const {
  int open = 0;
  for (const Replica& replica : replicas_) {
    open += replica.state == BreakerState::kOpen ? 1 : 0;
  }
  return open;
}

bool RequestRouter::admits(Replica& replica, SimTime now) {
  switch (replica.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now >= replica.open_until) {
        replica.state = BreakerState::kHalfOpen;  // one probe goes through
        return true;
      }
      return false;
    case BreakerState::kHalfOpen:
      // Injection resolves synchronously, so a half-open replica has no
      // probe outstanding: the next request is (another) probe.
      return true;
  }
  return false;
}

void RequestRouter::record_success(Replica& replica) {
  replica.consecutive_failures = 0;
  if (replica.state != BreakerState::kClosed) {
    replica.state = BreakerState::kClosed;
    ++breaker_closes_;
  }
}

void RequestRouter::record_failure(Replica& replica, SimTime now) {
  ++replica.consecutive_failures;
  const bool reopen = replica.state == BreakerState::kHalfOpen;
  const bool trip = replica.state == BreakerState::kClosed &&
                    replica.consecutive_failures >= config_.breaker_threshold;
  if (reopen || trip) {
    replica.state = BreakerState::kOpen;
    replica.open_until = now + config_.breaker_open;
    ++breaker_trips_;
  }
}

void RequestRouter::route_one(SimTime now, CpuTime cost) {
  ++generated_;
  // Front-door admission (overload.h): criticality-class shedding runs
  // before any replica is considered, so rejected requests cost nothing
  // downstream.
  if (admission_ != nullptr && !admission_->admit(admission_slot_)) {
    ++rejected_;
    return;
  }
  ++admitted_;
  // Live = the shared fleet snapshot shows the replica running AND its sink
  // exists right now (not stopped, crashed, or frozen mid-migration);
  // admitted = live and its breaker lets this attempt pass. The snapshot is
  // lazily fresh, so a replica that stopped earlier this round is already
  // out of rotation here — the router and the control loops act on the same
  // view of the fleet.
  const FleetView& fleet = cluster_.fleet_view();
  bool any_live = false;
  candidates_.clear();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const int pod = replicas_[i].pod;
    if (pod >= fleet.pod_count() ||
        !fleet.pods[static_cast<std::size_t>(pod)].running ||
        sink(pod) == nullptr) {
      continue;
    }
    any_live = true;
    if (admits(replicas_[i], now)) {
      candidates_.push_back(i);
    }
  }
  if (!any_live) {
    ++unroutable_;  // the fleet has no replica at all
    return;
  }
  if (candidates_.empty()) {
    ++shed_;  // replicas exist but every breaker is open: protect them
    return;
  }
  // Brownout is sampled once per request: the whole request is served
  // degraded or not, however many attempts it takes.
  const bool degraded = admission_ != nullptr && admission_->brownout();
  // Bounded retry: attempt the JSQ-best candidate, then the next-best on a
  // refused injection, never re-trying a replica within one request. Every
  // retry beyond the first attempt draws on the fleet-wide retry budget, so
  // a failover cannot multiply offered load into a retry storm.
  const int max_attempts = 1 + config_.max_retries;
  for (int attempt = 0; attempt < max_attempts && !candidates_.empty();
       ++attempt) {
    if (attempt > 0 && admission_ != nullptr && !admission_->allow_retry()) {
      break;  // budget exhausted: give up instead of amplifying
    }
    std::size_t best_pos = 0;
    std::size_t best_depth = 0;
    for (std::size_t pos = 0; pos < candidates_.size(); ++pos) {
      const std::size_t depth = sink(replicas_[candidates_[pos]].pod)->queue_depth();
      if (pos == 0 || depth < best_depth) {
        best_pos = pos;
        best_depth = depth;
      }
    }
    Replica& replica = replicas_[candidates_[best_pos]];
    ++attempts_;
    if (attempt > 0) {
      ++retries_;
    }
    if (sink(replica.pod)->inject_request(now, cost, degraded)) {
      record_success(replica);
      ++routed_;
      if (degraded) {
        ++degraded_;
      }
      if (admission_ != nullptr) {
        admission_->on_success();
      }
      return;
    }
    record_failure(replica, now);
    candidates_.erase(candidates_.begin() +
                      static_cast<std::ptrdiff_t>(best_pos));
  }
  ++dropped_;  // every allowed attempt was refused (or the budget ran dry)
}

void RequestRouter::inject_batch(SimTime now, const CpuTime* costs,
                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    route_one(now, costs[i]);
  }
}

void RequestRouter::tick(SimTime now, SimDuration dt) {
  accumulator_ += config_.arrivals_per_sec * static_cast<double>(dt) /
                  static_cast<double>(units::sec);
  while (accumulator_ >= 1.0) {
    accumulator_ -= 1.0;
    route_one(now);
  }
}

server::RequestStats RequestRouter::aggregate() const {
  server::RequestStats total;
  for (const Replica& replica : replicas_) {
    total.merge(cluster_.pod(replica.pod).archived);
    if (const server::WorkerPoolServer* s = sink(replica.pod)) {
      total.merge(s->stats());
    }
  }
  return total;
}

std::uint64_t RequestRouter::queued() const {
  std::uint64_t depth = 0;
  for (const Replica& replica : replicas_) {
    if (const server::WorkerPoolServer* s = sink(replica.pod)) {
      depth += s->queue_depth();
    }
  }
  return depth;
}

}  // namespace arv::cluster
