#include "src/cluster/overload.h"

#include <algorithm>

#include "src/container/host.h"
#include "src/server/server_runtime.h"
#include "src/util/assert.h"

namespace arv::cluster {

namespace {

/// Control-loop round length (AIMD limits, retry-budget floor).
constexpr SimDuration kPeriod = 100 * units::msec;

// --- fleet-wide retry budget -------------------------------------------------
/// Milli-tokens deposited per successful request (100 = 10% of successes may
/// be retries).
constexpr std::int64_t kRetryBudgetPermille = 100;
/// Budget cap, in whole tokens (bounds the stored burst of retries).
constexpr std::int64_t kRetryBudgetCap = 100;
/// Per-round re-arm floor, in whole tokens: even with zero successes this
/// many retries per round stay possible, so the fleet keeps probing.
constexpr std::int64_t kRetryBudgetFloor = 2;

// --- adaptive per-replica concurrency limits ---------------------------------
/// First limit applied to a replica (then AIMD takes over).
constexpr int kInitialLimit = 64;
constexpr int kMinLimit = 4;
/// Additive increase per calm round.
constexpr int kLimitIncrease = 4;
/// Multiplicative decrease on a congested round (limit *= this / 1000).
constexpr std::int64_t kLimitDecreasePermille = 700;
/// A round is calm while its p50 <= trailing-min p50 * this / 1000.
constexpr std::int64_t kLatencyTolerancePermille = 2000;
/// Rounds of trailing p50 minima kept as the baseline.
constexpr int kMinWindowRounds = 30;

}  // namespace

AdmissionController::AdmissionController(Cluster& cluster, AdmissionConfig)
    : cluster_(cluster), telemetry_(cluster, "admission") {
  // Start with a full retry reserve: the budget bounds the retry *rate*
  // relative to successes; an initial reserve just lets the first failover
  // probe immediately.
  retry_tokens_milli_ = kRetryBudgetCap * 1000;
  telemetry_.gauge("overload.retry_tokens_milli", "",
                   [this] { return retry_tokens_milli_; });
  telemetry_.counter("overload.retries_denied", "", retries_denied_);
  telemetry_.gauge("overload.queue_limit_total", "",
                   [this] { return queue_limit_total_; });
  telemetry_.file("retries_denied", snap_.retries_denied);
  telemetry_.file("retry_tokens_milli", snap_.retry_tokens_milli);
  telemetry_.file("queue_limit_total", snap_.queue_limit_total);
}

void AdmissionController::register_tenant(const std::string& name,
                                          RequestRouter& router) {
  ARV_ASSERT_MSG(!name.empty(), "tenant needs a name");
  for (const Tenant& t : tenants_) {
    ARV_ASSERT_MSG(t.name != name, "tenant already registered");
  }
  tenants_.push_back(Tenant{name, &router});
  router.attach_admission(this);
}

SimDuration AdmissionController::tick_period() const { return kPeriod; }

bool AdmissionController::allow_retry() {
  if (retry_tokens_milli_ >= 1000) {
    retry_tokens_milli_ -= 1000;
    ++retries_allowed_;
    return true;
  }
  ++retries_denied_;
  return false;
}

void AdmissionController::on_success() {
  retry_tokens_milli_ =
      std::min(kRetryBudgetCap * 1000,
               retry_tokens_milli_ + kRetryBudgetPermille);
}

void AdmissionController::update_limits() {
  queue_limit_total_ = 0;
  for (Tenant& t : tenants_) {
    for (int i = 0; i < t.router->replica_count(); ++i) {
      const int pod_id = t.router->replica_pod(i);
      Pod& pod = cluster_.pod(pod_id);
      server::WorkerPoolServer* sink =
          pod.workload == nullptr ? nullptr : pod.workload->request_sink();
      LimitState& st = limits_[pod_id];
      // Per-pod cumulative latency stream: archived history + live sink.
      // Monotone across restarts/migrations by the harvest contract, so the
      // round delta is exact and an unmoved count means unmoved buckets.
      const std::uint64_t live =
          sink == nullptr ? 0 : sink->stats().latency_hist.count();
      std::int64_t round_p50 = -1;
      if (pod.archived.latency_hist.count() + live != st.prev.count()) {
        util::LatencyHistogram hist = pod.archived.latency_hist;
        if (sink != nullptr) {
          hist.merge(sink->stats().latency_hist);
        }
        round_p50 = hist.percentile_since(st.prev, 50.0);
        st.prev = hist;
      }
      if (st.limit == 0) {
        st.limit = kInitialLimit;
      }
      if (round_p50 >= 0) {
        st.window.push_back(round_p50);
        while (static_cast<int>(st.window.size()) > kMinWindowRounds) {
          st.window.pop_front();
        }
        const std::int64_t min_p50 =
            *std::min_element(st.window.begin(), st.window.end());
        if (round_p50 * 1000 <= min_p50 * kLatencyTolerancePermille) {
          st.limit += kLimitIncrease;  // additive increase
        } else {
          st.limit = std::max<int>(
              kMinLimit,
              static_cast<int>(static_cast<std::int64_t>(st.limit) *
                               kLimitDecreasePermille / 1000));
        }
      } else if (sink != nullptr && sink->queue_depth() == 0) {
        st.limit += kLimitIncrease;  // idle round: recover headroom
      }
      st.limit = std::max(st.limit, kMinLimit);
      if (sink != nullptr) {
        sink->set_queue_limit(static_cast<std::size_t>(st.limit));
        // Read back the server-side clamp so growth stops at max_queue.
        st.limit = static_cast<int>(sink->queue_limit());
        queue_limit_total_ += st.limit;
      }
    }
  }
}

void AdmissionController::tick(SimTime /*now*/, SimDuration /*dt*/) {
  update_limits();
  // Per-round floor: even with zero successes the fleet keeps a trickle of
  // retry capacity, so it never stops probing for recovery.
  retry_tokens_milli_ =
      std::max(retry_tokens_milli_, kRetryBudgetFloor * 1000);

  snap_.retries_denied = retries_denied_;
  snap_.retry_tokens_milli = retry_tokens_milli_;
  snap_.queue_limit_total = queue_limit_total_;
}

}  // namespace arv::cluster
