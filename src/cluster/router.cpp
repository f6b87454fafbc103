#include "src/cluster/router.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/overload.h"
#include "src/server/server_runtime.h"
#include "src/util/assert.h"

namespace arv::cluster {

namespace {

/// A rate the tick loop can consume: +inf would never drain the arrival
/// accumulator, and NaN or a negative rate generates nothing.
double clamp_rate(double arrivals_per_sec) {
  return std::isfinite(arrivals_per_sec) ? std::max(0.0, arrivals_per_sec)
                                         : 0.0;
}

}  // namespace

RouterConfig RouterConfig::validated() const {
  RouterConfig v = *this;
  v.arrivals_per_sec = clamp_rate(v.arrivals_per_sec);
  v.max_retries = std::max(0, v.max_retries);
  return v;
}

RequestRouter::RequestRouter(Cluster& cluster, RouterConfig config,
                             const std::string& tenant)
    : cluster_(cluster), config_(config.validated()), telemetry_(cluster) {
  telemetry_.counter("router.generated", tenant, generated_);
  telemetry_.counter("router.routed", tenant, routed_);
  telemetry_.counter("router.unroutable", tenant, unroutable_);
  telemetry_.counter("router.dropped", tenant, dropped_);
  telemetry_.counter("router.retries", tenant, retries_);
}

bool RequestRouter::add_replica(int pod_id) {
  server::WorkerPoolServer* s = sink(pod_id);
  ARV_ASSERT_MSG(s != nullptr || cluster_.pod(pod_id).in_flight(),
                 "replica pod has no request sink");
  if (std::find(replicas_.begin(), replicas_.end(), pod_id) !=
      replicas_.end()) {
    return false;  // already in rotation; double arrivals would corrupt JSQ
  }
  replicas_.push_back(pod_id);
  return true;
}

void RequestRouter::set_rate(double arrivals_per_sec) {
  config_.arrivals_per_sec = clamp_rate(arrivals_per_sec);
}

void RequestRouter::attach_admission(AdmissionController* admission) {
  ARV_ASSERT_MSG(admission_ == nullptr || admission == admission_,
                 "router already has an admission controller");
  admission_ = admission;
}

server::WorkerPoolServer* RequestRouter::sink(int pod_id) const {
  Pod& pod = cluster_.pod(pod_id);
  return pod.workload == nullptr ? nullptr : pod.workload->request_sink();
}

void RequestRouter::route_one(SimTime now, CpuTime cost) {
  ++generated_;
  // Live = the replica's sink exists right now: a pod has a workload only
  // while running, so a stopped, crashed or in-flight replica — even one
  // that stopped earlier this round — is already out of rotation here.
  candidates_.clear();
  for (const int pod : replicas_) {
    if (sink(pod) != nullptr) {
      candidates_.push_back(pod);
    }
  }
  if (candidates_.empty()) {
    ++unroutable_;  // the fleet has no replica at all
    return;
  }
  // Bounded retry: attempt the JSQ-best candidate, then the next-best on a
  // refused injection, never re-trying a replica within one request. Every
  // retry beyond the first attempt draws on the fleet-wide retry budget, so
  // a failover cannot multiply offered load into a retry storm.
  for (int attempt = 0; attempt <= config_.max_retries && !candidates_.empty();
       ++attempt) {
    if (attempt > 0 && admission_ != nullptr && !admission_->allow_retry()) {
      break;  // budget exhausted: give up instead of amplifying
    }
    std::size_t best_pos = 0;
    std::size_t best_depth = 0;
    for (std::size_t pos = 0; pos < candidates_.size(); ++pos) {
      const std::size_t depth = sink(candidates_[pos])->queue_depth();
      if (pos == 0 || depth < best_depth) {
        best_pos = pos;
        best_depth = depth;
      }
    }
    ++attempts_;
    if (attempt > 0) {
      ++retries_;
    }
    if (sink(candidates_[best_pos])->inject_request(now, cost)) {
      ++routed_;
      if (admission_ != nullptr) {
        admission_->on_success();
      }
      return;
    }
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
  for (const int pod : replicas_) {
    total.merge(cluster_.pod(pod).archived);
    if (const server::WorkerPoolServer* s = sink(pod)) {
      total.merge(s->stats());
    }
  }
  return total;
}

std::uint64_t RequestRouter::queued() const {
  std::uint64_t depth = 0;
  for (const int pod : replicas_) {
    if (const server::WorkerPoolServer* s = sink(pod)) {
      depth += s->queue_depth();
    }
  }
  return depth;
}

}  // namespace arv::cluster
