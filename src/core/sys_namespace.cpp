#include "src/core/sys_namespace.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::core {
namespace {

bool known_policy(std::string_view name) {
  return std::find(kPolicyNames.begin(), kPolicyNames.end(), name) !=
         kPolicyNames.end();
}

}  // namespace

SysNamespace::SysNamespace(cgroup::CgroupId cgroup, Params params)
    : proc::Namespace(Kind::kSys), cgroup_(cgroup), params_(std::move(params)) {
  ARV_ASSERT(params_.valid());
  ARV_ASSERT(known_policy(params_.policy));
}

bool SysNamespace::set_policy(const std::string& name) {
  if (!known_policy(name)) {
    return false;
  }
  params_.policy = name;
  restart();
  return true;
}

bool SysNamespace::set_params(const Params& next) {
  if (!next.valid() || !known_policy(next.policy)) {
    return false;
  }
  params_ = next;
  restart();
  return true;
}

void SysNamespace::restart() {
  prev_free_.reset();
  prev_usage_.reset();
  // Re-derive immediately: a switch to "static" must pin to the limits now,
  // not at the next cgroup event.
  apply_cpu_bounds();
  if (hard_limit_ > 0) {
    apply_mem_limits();
  }
}

void SysNamespace::apply_cpu_bounds() {
  // "static" exports the administrator-set limit (quota/cpuset), nothing
  // else. "paper" initializes to LOWER at creation (Algorithm 1, line 6:
  // e_cpu_ starts at 1, below every lower bound) and later keeps its
  // adaptive state, clamped into the new range.
  e_cpu_ = std::clamp(is_static() ? bounds_.upper : e_cpu_, bounds_.lower,
                      bounds_.upper);
}

void SysNamespace::apply_mem_limits() {
  // "static" pins to the hard limit on *every* refresh — a runtime
  // `memory.limit_in_bytes` update must re-pin, exactly like LXCFS following
  // `docker update`. "paper" initializes to the soft limit (Algorithm 2,
  // line 3) and later re-clamps into the valid range.
  Bytes next = e_mem_ == 0 ? soft_limit_ : e_mem_;
  if (is_static()) {
    next = hard_limit_;
  }
  e_mem_ = std::clamp(next, soft_limit_, hard_limit_);
}

void SysNamespace::refresh_cpu_bounds(const cgroup::Tree& tree) {
  if (!tree.exists(cgroup_)) {
    return;
  }
  const int online = tree.online_cpus();
  const int mask_cpus = tree.effective_cpuset(cgroup_).count();
  const int quota_cpus = tree.effective_quota_cpus(cgroup_);  // l_i / t

  // Algorithm 1, line 4: the share fraction guarantees ceil(w_i/Σw · |P|)
  // CPUs if affinity and quota permit.
  const std::int64_t shares = tree.get(cgroup_).cpu().shares;
  const std::int64_t total_shares = std::max<std::int64_t>(1, tree.total_shares());
  const int share_cpus = static_cast<int>(
      ceil_div(shares * online, total_shares));

  bounds_.lower = std::max(1, std::min({quota_cpus, mask_cpus, share_cpus}));
  // Algorithm 1, line 5.
  bounds_.upper = std::max(1, std::min(quota_cpus, mask_cpus));
  ARV_ASSERT(bounds_.lower <= bounds_.upper);

  apply_cpu_bounds();
}

void SysNamespace::refresh_mem_limits(const cgroup::Tree& tree, Bytes total_ram) {
  if (!tree.exists(cgroup_)) {
    return;
  }
  const auto& mem = tree.get(cgroup_).mem();
  hard_limit_ = std::min(mem.limit_in_bytes, total_ram);
  // A container without a soft limit effectively has soft == hard (there is
  // nothing for kswapd's soft-limit pass to reclaim down to).
  soft_limit_ = std::min(mem.soft_limit_in_bytes, hard_limit_);
  apply_mem_limits();
}

void SysNamespace::update_cpu(const CpuObservation& obs) {
  ARV_ASSERT(obs.window > 0);
  ++cpu_updates_;
  const int before = e_cpu_;
  int next = before;
  Decision reason = Decision::kHeld;
  if (is_static()) {
    // The comparator's view never reacts to allocation.
  } else if (obs.host_has_slack) {
    // Lines 9-12: grow while the container saturates its effective CPUs
    // and the host has idle capacity it could soak up (work conservation).
    const double capacity =
        static_cast<double>(before) * static_cast<double>(obs.window);
    if (static_cast<double>(obs.usage) / capacity >
        params_.cpu_util_threshold) {
      next = before + params_.cpu_step;
      reason = Decision::kGrew;
    }
  } else if (before > bounds_.lower) {
    // Lines 14-15: the host is saturated; back off toward the guaranteed
    // share so containers converge on an interference-free concurrency.
    next = before - params_.cpu_step;
    reason = Decision::kShrank;
  }
  const int clamped = std::clamp(next, bounds_.lower, bounds_.upper);
  if (clamped != next) {
    // The static bounds, not the algorithm, determined the final value.
    reason = Decision::kClamped;
  } else if (clamped == before &&
             (reason == Decision::kGrew || reason == Decision::kShrank)) {
    reason = Decision::kHeld;  // the intended movement went nowhere
  }
  e_cpu_ = clamped;
  cpu_decisions_.count(reason);
}

void SysNamespace::update_mem(const MemObservation& obs) {
  ++mem_updates_;
  if (hard_limit_ <= 0) {
    mem_decisions_.count(Decision::kHeld);
    return;  // limits not initialized yet
  }
  const Bytes before = e_mem_;
  Bytes next = before;
  Decision reason = Decision::kHeld;
  if (is_static()) {
    // The comparator's view never reacts to allocation.
  } else if (obs.free <= obs.low_mark || obs.kswapd_active) {
    // Lines 13-14: memory shortage — fall back to the reclaim target so the
    // runtime sheds the memory kswapd is about to steal anyway. The
    // prediction snapshot re-seeds too, so the next ratio measures from the
    // shortage window, not from before it.
    prev_free_ = obs.free;
    prev_usage_ = obs.usage;
    next = soft_limit_;
    reason = Decision::kReset;
  } else {
    if (before < hard_limit_ &&
        static_cast<double>(obs.usage) >
            params_.mem_use_threshold * static_cast<double>(before)) {
      // Line 7: step toward the hard limit by 10% of the remaining headroom.
      const Bytes delta = std::max<Bytes>(
          units::page,
          static_cast<Bytes>(static_cast<double>(hard_limit_ - before) *
                             params_.mem_growth_frac));
      // Line 9: only grow if the predicted free memory stays above
      // HIGH_MARK, i.e. growth will not wake kswapd.
      if (!params_.mem_prediction_gate ||
          obs.free - predicted_drop(obs, delta) > obs.high_mark) {
        next = before + delta;
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
  }
  const Bytes clamped = std::clamp(next, soft_limit_, hard_limit_);
  if (clamped != next) {
    reason = Decision::kClamped;
  } else if (clamped == before &&
             (reason == Decision::kGrew || reason == Decision::kShrank)) {
    reason = Decision::kHeld;
  }
  e_mem_ = clamped;
  mem_decisions_.count(reason);
}

Bytes SysNamespace::predicted_drop(const MemObservation& obs,
                                   Bytes delta) const {
  // Scaled by how much free memory moved per byte of container growth over
  // the previous window. Degenerate windows (container shrank or free
  // memory grew) presume 1:1.
  double ratio = 1.0;
  if (prev_free_.has_value() && prev_usage_.has_value() &&
      obs.usage > *prev_usage_ && *prev_free_ > obs.free) {
    ratio = static_cast<double>(*prev_free_ - obs.free) /
            static_cast<double>(obs.usage - *prev_usage_);
  }
  return static_cast<Bytes>(ratio * static_cast<double>(delta));
}

}  // namespace arv::core
