#include "src/cluster/overload.h"

#include <algorithm>

#include "src/container/host.h"
#include "src/server/server_runtime.h"
#include "src/util/assert.h"

namespace arv::cluster {

const char* criticality_name(Criticality c) {
  switch (c) {
    case Criticality::kCritical:
      return "critical";
    case Criticality::kNormal:
      return "normal";
    case Criticality::kBatch:
      return "batch";
    case Criticality::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

Criticality criticality_for_slo(std::int64_t availability_permille) {
  if (availability_permille >= 999) {
    return Criticality::kCritical;
  }
  if (availability_permille >= 990) {
    return Criticality::kNormal;
  }
  if (availability_permille >= 950) {
    return Criticality::kBatch;
  }
  return Criticality::kBestEffort;
}

AdmissionConfig AdmissionConfig::validated() const {
  AdmissionConfig v = *this;
  const AdmissionConfig d;
  if (v.period <= 0) {
    v.period = d.period;
  }
  v.queue_ref_depth = std::max(1, v.queue_ref_depth);
  if (v.p99_ref <= 0) {
    v.p99_ref = d.p99_ref;
  }
  v.shed_enter_permille = std::max<std::int64_t>(1, v.shed_enter_permille);
  v.shed_step_permille = std::max<std::int64_t>(1, v.shed_step_permille);
  v.shed_exit_margin_permille =
      std::max<std::int64_t>(0, v.shed_exit_margin_permille);
  v.release_rounds = std::max(1, v.release_rounds);
  v.retry_budget_permille = std::max<std::int64_t>(0, v.retry_budget_permille);
  v.retry_budget_floor = std::max<std::int64_t>(0, v.retry_budget_floor);
  v.retry_budget_cap =
      std::max<std::int64_t>(std::max<std::int64_t>(1, v.retry_budget_floor),
                             v.retry_budget_cap);
  v.min_limit = std::max(1, v.min_limit);
  v.initial_limit = std::max(v.min_limit, v.initial_limit);
  v.limit_increase = std::max(1, v.limit_increase);
  v.limit_decrease_permille =
      std::clamp<std::int64_t>(v.limit_decrease_permille, 1, 999);
  v.latency_tolerance_permille =
      std::max<std::int64_t>(1000, v.latency_tolerance_permille);
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
  telemetry_.gauge("admission.pressure_permille", "",
                   [this] { return pressure_; });
  telemetry_.gauge("admission.shed_level", "", [this] { return shed_level_; });
  telemetry_.counter("admission.admitted", "", admitted_);
  telemetry_.counter("admission.rejected", "", rejected_);
  telemetry_.gauge("overload.retry_tokens_milli", "",
                   [this] { return retry_tokens_milli_; });
  telemetry_.counter("overload.retries_denied", "", retries_denied_);
  telemetry_.gauge("overload.queue_limit_total", "",
                   [this] { return queue_limit_total_; });
  telemetry_.gauge("overload.windowed_p99_us", "",
                   [this] { return windowed_p99_; });
  telemetry_.file("pressure_permille", snap_.pressure);
  telemetry_.file("shed_level", snap_.shed_level);
  telemetry_.file("admitted", snap_.admitted);
  telemetry_.file("rejected", snap_.rejected);
  telemetry_.file("retries_denied", snap_.retries_denied);
  telemetry_.file("retry_tokens_milli", snap_.retry_tokens_milli);
  telemetry_.file("queue_limit_total", snap_.queue_limit_total);
}

int AdmissionController::register_tenant(const std::string& name,
                                         RequestRouter& router,
                                         Criticality criticality) {
  ARV_ASSERT_MSG(!name.empty(), "tenant needs a name");
  ARV_ASSERT_MSG(find(name) == nullptr, "tenant already registered");
  const int slot = static_cast<int>(tenants_.size());
  tenants_.push_back(Tenant{});
  Tenant& t = tenants_.back();
  t.name = name;
  t.router = &router;
  t.criticality = criticality;
  router.attach_admission(this, slot);
  telemetry_.file(name + "/criticality", [&t] {
    return std::string(criticality_name(t.criticality)) + "\n";
  });
  telemetry_.file(name + "/admitted", t.snap_admitted);
  telemetry_.file(name + "/rejected", t.snap_rejected);
  return slot;
}

AdmissionController::Tenant* AdmissionController::find(
    const std::string& name) {
  for (Tenant& t : tenants_) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

const AdmissionController::Tenant* AdmissionController::find(
    const std::string& name) const {
  for (const Tenant& t : tenants_) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

void AdmissionController::set_criticality(const std::string& name,
                                          Criticality criticality) {
  Tenant* t = find(name);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  t->criticality = criticality;
}

Criticality AdmissionController::tenant_criticality(
    const std::string& name) const {
  const Tenant* t = find(name);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->criticality;
}

std::uint64_t AdmissionController::tenant_admitted(
    const std::string& name) const {
  const Tenant* t = find(name);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->admitted;
}

std::uint64_t AdmissionController::tenant_rejected(
    const std::string& name) const {
  const Tenant* t = find(name);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->rejected;
}

bool AdmissionController::admit(int slot) {
  ARV_ASSERT(slot >= 0 && slot < static_cast<int>(tenants_.size()));
  Tenant& t = tenants_[static_cast<std::size_t>(slot)];
  if (shed_level_ > 0 && shedding(t.criticality)) {
    ++rejected_;
    ++t.rejected;
    return false;
  }
  ++admitted_;
  ++t.admitted;
  return true;
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

void AdmissionController::update_pressure(SimTime /*now*/) {
  std::uint64_t queued = 0;
  int live = 0;
  util::LatencyHistogram fleet;
  for (Tenant& t : tenants_) {
    queued += t.router->queued();
    live += t.router->live_replicas();
    fleet.merge(t.router->aggregate().latency_hist);
  }
  // Windowed p99: the cumulative fleet histogram minus last round's
  // snapshot isolates exactly this round's completions (teardown always
  // harvests into Pod::archived, so the merged stream is monotone).
  windowed_p99_ = fleet.count_since(fleet_prev_) == 0
                      ? 0
                      : fleet.percentile_since(fleet_prev_, 99.0);
  fleet_prev_ = fleet;
  const std::int64_t queue_permille =
      live == 0 ? 0
                : static_cast<std::int64_t>(queued) * 1000 /
                      (static_cast<std::int64_t>(live) * config_.queue_ref_depth);
  const std::int64_t latency_permille =
      windowed_p99_ * 1000 / config_.p99_ref;
  pressure_ = std::max(queue_permille, latency_permille);
}

void AdmissionController::update_shed_level() {
  // How many bands the current pressure crosses right now.
  int crossed = 0;
  while (crossed < kCriticalityClasses &&
         pressure_ >= config_.shed_enter_permille +
                          static_cast<std::int64_t>(crossed) *
                              config_.shed_step_permille) {
    ++crossed;
  }
  if (crossed > shed_level_) {
    // Fast attack: jump straight to the crossed band.
    shed_level_ = crossed;
    calm_rounds_ = 0;
    ++shed_raises_;
    return;
  }
  if (shed_level_ == 0) {
    calm_rounds_ = 0;
    return;
  }
  // Slow release: the current level disengages only after `release_rounds`
  // consecutive rounds comfortably below its own entry band.
  const std::int64_t release_below =
      config_.shed_enter_permille +
      static_cast<std::int64_t>(shed_level_ - 1) * config_.shed_step_permille -
      config_.shed_exit_margin_permille;
  if (pressure_ < release_below) {
    if (++calm_rounds_ >= config_.release_rounds) {
      --shed_level_;
      calm_rounds_ = 0;
    }
  } else {
    calm_rounds_ = 0;
  }
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

void AdmissionController::tick(SimTime now, SimDuration /*dt*/) {
  update_pressure(now);
  update_shed_level();
  update_limits();
  // Per-round floor: even with zero successes the fleet keeps a trickle of
  // retry capacity, so it never stops probing for recovery.
  retry_tokens_milli_ =
      std::max(retry_tokens_milli_, config_.retry_budget_floor * 1000);

  snap_.pressure = pressure_;
  snap_.shed_level = shed_level_;
  snap_.admitted = admitted_;
  snap_.rejected = rejected_;
  snap_.retries_denied = retries_denied_;
  snap_.retry_tokens_milli = retry_tokens_milli_;
  snap_.queue_limit_total = queue_limit_total_;
  for (Tenant& t : tenants_) {
    t.snap_admitted = t.admitted;
    t.snap_rejected = t.rejected;
  }
}

}  // namespace arv::cluster
