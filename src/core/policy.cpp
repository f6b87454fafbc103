#include "src/core/policy.h"

#include <algorithm>
#include <optional>

namespace arv::core {
namespace {

// --- "paper": Algorithms 1/2 exactly as published ----------------------------

class PaperCpuPolicy final : public CpuPolicy {
 public:
  explicit PaperCpuPolicy(const Params& params) : params_(params) {}

  std::string name() const override { return "paper"; }

  CpuDecision on_bounds(const CpuBounds& bounds, int current) override {
    // Line 6 applies at creation; later setting changes keep the adaptive
    // state (SysNamespace clamps into the new range).
    return {current == 0 ? bounds.lower : current, Decision::kHeld};
  }

  CpuDecision update(const CpuBounds& bounds, const CpuObservation& obs,
                     int current) override {
    if (obs.host_has_slack) {
      // Lines 9-12: grow while the container saturates its effective CPUs
      // and the host has idle capacity it could soak up (work conservation).
      const double capacity =
          static_cast<double>(current) * static_cast<double>(obs.window);
      if (static_cast<double>(obs.usage) / capacity >
          params_.cpu_util_threshold) {
        return {current + params_.cpu_step, Decision::kGrew};
      }
      return {current, Decision::kHeld};
    }
    // Lines 14-15: the host is saturated; back off toward the guaranteed
    // share so containers converge on an interference-free concurrency.
    if (current > bounds.lower) {
      return {current - params_.cpu_step, Decision::kShrank};
    }
    return {current, Decision::kHeld};
  }

 private:
  Params params_;
};

class PaperMemPolicy final : public MemPolicy {
 public:
  explicit PaperMemPolicy(const Params& params) : params_(params) {}

  std::string name() const override { return "paper"; }

  MemDecision on_limits(const MemBounds& bounds, Bytes current) override {
    // Algorithm 2, line 3: initialize to the soft limit; on limit changes,
    // SysNamespace re-clamps into the valid range.
    return {current == 0 ? bounds.soft : current, Decision::kHeld};
  }

  MemDecision update(const MemBounds& bounds, const MemObservation& obs,
                     Bytes current) override {
    if (obs.free <= obs.low_mark || obs.kswapd_active) {
      // Lines 13-14: memory shortage — fall back to the reclaim target so
      // the runtime sheds the memory kswapd is about to steal anyway. The
      // prediction snapshot re-seeds too, so the next ratio measures from
      // the shortage window, not from before it.
      prev_free_ = obs.free;
      prev_usage_ = obs.usage;
      return {bounds.soft, Decision::kReset};
    }
    Bytes next = current;
    Decision reason = Decision::kHeld;
    if (current < bounds.hard &&
        static_cast<double>(obs.usage) >
            params_.mem_use_threshold * static_cast<double>(current)) {
      // Line 7: step toward the hard limit by 10% of the remaining headroom.
      const Bytes delta = std::max<Bytes>(
          units::page,
          static_cast<Bytes>(static_cast<double>(bounds.hard - current) *
                             params_.mem_growth_frac));
      // Line 9: only grow if the predicted free memory stays above
      // HIGH_MARK, i.e. growth will not wake kswapd.
      if (!params_.mem_prediction_gate ||
          obs.free - predicted_drop(obs, delta) > obs.high_mark) {
        next = current + delta;
        reason = Decision::kGrew;
      }
    }
    // End-of-update snapshot. Only taken when usage actually moved: heap
    // growth is bursty relative to the update period, and a zero-delta
    // window would collapse the prediction ratio to its default, hiding the
    // free-memory drain that co-growing containers cause.
    if (!prev_usage_.has_value() || obs.usage != *prev_usage_) {
      prev_free_ = obs.free;
      prev_usage_ = obs.usage;
    }
    return {next, reason};
  }

 private:
  /// Line 8: the predicted system-free-memory drop if `delta` bytes were
  /// granted now, scaled by how much free memory moved per byte of
  /// container growth over the previous window. Degenerate windows
  /// (container shrank or free memory grew) presume 1:1.
  Bytes predicted_drop(const MemObservation& obs, Bytes delta) const {
    double ratio = 1.0;
    if (prev_free_.has_value() && prev_usage_.has_value() &&
        obs.usage > *prev_usage_ && *prev_free_ > obs.free) {
      ratio = static_cast<double>(*prev_free_ - obs.free) /
              static_cast<double>(obs.usage - *prev_usage_);
    }
    return static_cast<Bytes>(ratio * static_cast<double>(delta));
  }

  Params params_;
  std::optional<Bytes> prev_free_;
  std::optional<Bytes> prev_usage_;
};

// --- "static": the LXCFS / cgroup-namespace comparator -----------------------

class StaticCpuPolicy final : public CpuPolicy {
 public:
  std::string name() const override { return "static"; }
  bool adaptive() const override { return false; }

  CpuDecision on_bounds(const CpuBounds& bounds, int) override {
    // Export the administrator-set limit (quota/cpuset), nothing else.
    return {bounds.upper, Decision::kHeld};
  }

  CpuDecision update(const CpuBounds&, const CpuObservation&,
                     int current) override {
    return {current, Decision::kHeld};  // static views never react
  }
};

class StaticMemPolicy final : public MemPolicy {
 public:
  std::string name() const override { return "static"; }
  bool adaptive() const override { return false; }

  MemDecision on_limits(const MemBounds& bounds, Bytes) override {
    // Pin to the hard limit on *every* refresh — a runtime
    // `memory.limit_in_bytes` update must re-pin, exactly like LXCFS
    // following `docker update`, not only the refresh at construction.
    return {bounds.hard, Decision::kHeld};
  }

  MemDecision update(const MemBounds&, const MemObservation&,
                     Bytes current) override {
    return {current, Decision::kHeld};
  }
};

}  // namespace

const char* decision_name(Decision d) {
  switch (d) {
    case Decision::kHeld:
      return "held";
    case Decision::kGrew:
      return "grew";
    case Decision::kShrank:
      return "shrank";
    case Decision::kClamped:
      return "clamped";
    case Decision::kReset:
      return "reset";
  }
  return "unknown";
}

void DecisionCounters::count(Decision d) {
  switch (d) {
    case Decision::kHeld:
      ++held;
      break;
    case Decision::kGrew:
      ++grew;
      break;
    case Decision::kShrank:
      ++shrank;
      break;
    case Decision::kClamped:
      ++clamped;
      break;
    case Decision::kReset:
      ++reset;
      break;
  }
}

std::unique_ptr<CpuPolicy> make_cpu_policy(std::string_view name,
                                           const Params& params) {
  if (name == "paper") {
    return std::make_unique<PaperCpuPolicy>(params);
  }
  if (name == "static") {
    return std::make_unique<StaticCpuPolicy>();
  }
  return nullptr;
}

std::unique_ptr<MemPolicy> make_mem_policy(std::string_view name,
                                           const Params& params) {
  if (name == "paper") {
    return std::make_unique<PaperMemPolicy>(params);
  }
  if (name == "static") {
    return std::make_unique<StaticMemPolicy>();
  }
  return nullptr;
}

}  // namespace arv::core
