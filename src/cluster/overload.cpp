#include "src/cluster/overload.h"

#include <algorithm>

#include "src/container/host.h"
#include "src/server/server_runtime.h"
#include "src/util/assert.h"

namespace arv::cluster {

namespace {

/// Upper clamps. Each is far past any useful setting and keeps the integer
/// arithmetic exact: the milli-token budget (cap * 1000 plus one deposit),
/// the AIMD limit (limit + increase) and the calm test
/// (trailing-min p50 * tolerance) all stay well inside their types.
constexpr SimDuration kMaxPeriod = 3600 * units::sec;
constexpr std::int64_t kMaxRetryTokens = 1'000'000'000'000;
constexpr int kMaxLimit = 1'000'000;
constexpr std::int64_t kMaxLatencyTolerancePermille = 1'000'000;

}  // namespace

AdmissionConfig AdmissionConfig::validated() const {
  AdmissionConfig v = *this;
  if (v.period <= 0) {
    v.period = AdmissionConfig{}.period;
  }
  v.period = std::min(v.period, kMaxPeriod);
  v.retry_budget_floor =
      std::clamp<std::int64_t>(v.retry_budget_floor, 0, kMaxRetryTokens);
  v.retry_budget_cap = std::clamp<std::int64_t>(
      v.retry_budget_cap, std::max<std::int64_t>(1, v.retry_budget_floor),
      kMaxRetryTokens);
  // A deposit above the cap fills the bucket exactly as the cap itself does.
  v.retry_budget_permille = std::clamp<std::int64_t>(
      v.retry_budget_permille, 0, v.retry_budget_cap * 1000);
  v.min_limit = std::clamp(v.min_limit, 1, kMaxLimit);
  v.initial_limit = std::clamp(v.initial_limit, v.min_limit, kMaxLimit);
  v.limit_increase = std::clamp(v.limit_increase, 1, kMaxLimit);
  v.limit_decrease_permille =
      std::clamp<std::int64_t>(v.limit_decrease_permille, 1, 999);
  v.latency_tolerance_permille = std::clamp<std::int64_t>(
      v.latency_tolerance_permille, 1000, kMaxLatencyTolerancePermille);
  v.min_window_rounds = std::max(1, v.min_window_rounds);
  return v;
}

AdmissionController::AdmissionController(Cluster& cluster,
                                         AdmissionConfig config)
    : cluster_(cluster),
      config_(config.validated()),
      telemetry_(cluster, "admission") {
  // Start with a full retry reserve: the budget bounds the retry *rate*
  // relative to successes; an initial reserve just lets the first failover
  // probe immediately.
  retry_tokens_milli_ = config_.retry_budget_cap * 1000;
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
      std::min(config_.retry_budget_cap * 1000,
               retry_tokens_milli_ + config_.retry_budget_permille);
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
      // round delta is exact.
      util::LatencyHistogram hist = pod.archived.latency_hist;
      if (sink != nullptr) {
        hist.merge(sink->stats().latency_hist);
      }
      const std::uint64_t fresh = hist.count_since(st.prev);
      const std::int64_t round_p50 =
          fresh == 0 ? -1 : hist.percentile_since(st.prev, 50.0);
      st.prev = hist;
      if (st.limit == 0) {
        st.limit = config_.initial_limit;
      }
      if (round_p50 >= 0) {
        st.window.push_back(round_p50);
        while (static_cast<int>(st.window.size()) > config_.min_window_rounds) {
          st.window.pop_front();
        }
        const std::int64_t min_p50 =
            *std::min_element(st.window.begin(), st.window.end());
        if (round_p50 * 1000 <= min_p50 * config_.latency_tolerance_permille) {
          st.limit += config_.limit_increase;  // additive increase
        } else {
          st.limit = std::max<int>(
              config_.min_limit,
              static_cast<int>(static_cast<std::int64_t>(st.limit) *
                               config_.limit_decrease_permille / 1000));
        }
      } else if (sink != nullptr && sink->queue_depth() == 0) {
        st.limit += config_.limit_increase;  // idle round: recover headroom
      }
      st.limit = std::max(st.limit, config_.min_limit);
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
      std::max(retry_tokens_milli_, config_.retry_budget_floor * 1000);

  snap_.retries_denied = retries_denied_;
  snap_.retry_tokens_milli = retry_tokens_milli_;
  snap_.queue_limit_total = queue_limit_total_;
}

}  // namespace arv::cluster
