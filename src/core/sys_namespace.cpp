#include "src/core/sys_namespace.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::core {

SysNamespace::SysNamespace(cgroup::CgroupId cgroup, Params params)
    : proc::Namespace(Kind::kSys), cgroup_(cgroup), params_(std::move(params)) {
  ARV_ASSERT(params_.valid());
  cpu_policy_ = make_cpu_policy(params_.cpu_policy, params_);
  mem_policy_ = make_mem_policy(params_.mem_policy, params_);
  ARV_ASSERT(cpu_policy_ != nullptr);
  ARV_ASSERT(mem_policy_ != nullptr);
}

SysNamespace::~SysNamespace() = default;

bool SysNamespace::set_cpu_policy(const std::string& name) {
  auto next = make_cpu_policy(name, params_);
  if (next == nullptr) {
    return false;
  }
  params_.cpu_policy = name;
  cpu_policy_ = std::move(next);
  // Re-derive immediately: a switch to "static" must pin to the upper bound
  // now, not at the next cgroup event.
  apply_cpu_bounds();
  return true;
}

bool SysNamespace::set_mem_policy(const std::string& name) {
  auto next = make_mem_policy(name, params_);
  if (next == nullptr) {
    return false;
  }
  params_.mem_policy = name;
  mem_policy_ = std::move(next);
  if (hard_limit_ > 0) {
    apply_mem_limits();
  }
  return true;
}

bool SysNamespace::set_params(const Params& next) {
  if (!next.valid()) {
    return false;
  }
  auto cpu = make_cpu_policy(next.cpu_policy, next);
  auto mem = make_mem_policy(next.mem_policy, next);
  if (cpu == nullptr || mem == nullptr) {
    return false;
  }
  params_ = next;
  cpu_policy_ = std::move(cpu);
  mem_policy_ = std::move(mem);
  apply_cpu_bounds();
  if (hard_limit_ > 0) {
    apply_mem_limits();
  }
  return true;
}

void SysNamespace::apply_cpu_bounds() {
  const CpuDecision d = cpu_policy_->on_bounds(bounds_, e_cpu_);
  e_cpu_ = std::clamp(d.e_cpu, bounds_.lower, bounds_.upper);
}

void SysNamespace::apply_mem_limits() {
  const MemDecision d = mem_policy_->on_limits(mem_bounds(), e_mem_);
  e_mem_ = std::clamp(d.e_mem, soft_limit_, hard_limit_);
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
  const CpuDecision d = cpu_policy_->update(bounds_, obs, before);
  const int clamped = std::clamp(d.e_cpu, bounds_.lower, bounds_.upper);
  Decision reason = d.reason;
  if (clamped != d.e_cpu) {
    // The static bounds, not the policy, determined the final value.
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
  const MemDecision d = mem_policy_->update(mem_bounds(), obs, before);
  const Bytes clamped = std::clamp(d.e_mem, soft_limit_, hard_limit_);
  Decision reason = d.reason;
  if (clamped != d.e_mem) {
    reason = Decision::kClamped;
  } else if (clamped == before &&
             (reason == Decision::kGrew || reason == Decision::kShrank)) {
    reason = Decision::kHeld;
  }
  e_mem_ = clamped;
  mem_decisions_.count(reason);
}

}  // namespace arv::core
