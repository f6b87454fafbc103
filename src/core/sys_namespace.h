// SysNamespace — the paper's central data structure (§3.1).
//
// One instance per container. Maintains the container's *effective* CPU
// count (Algorithm 1) and *effective* memory size (Algorithm 2), i.e. the
// resources the container can actually use right now given its cgroup
// limits, its share of contention, and the host's current slack. The
// Ns_Monitor drives the periodic updates; the virtual sysfs answers
// application queries from these values.
//
// Since the policy refactor, SysNamespace owns only the static bounds, the
// effective state, and the decision bookkeeping; *how* the effective values
// move lives in the pluggable CpuPolicy/MemPolicy instances (policy.h).
// Policies return unclamped intents; SysNamespace clamps them into the
// bounds and records the clamp in the per-reason decision counters.
#pragma once

#include <memory>
#include <string>

#include "src/core/params.h"
#include "src/core/policy.h"
#include "src/proc/process.h"
#include "src/util/types.h"

namespace arv::core {

class SysNamespace final : public proc::Namespace {
 public:
  /// `params` must be valid() and name policies from kPolicyNames.
  SysNamespace(cgroup::CgroupId cgroup, Params params);
  ~SysNamespace() override;

  cgroup::CgroupId cgroup() const { return cgroup_; }

  // --- queries (what the virtual sysfs exports) ----------------------------
  int effective_cpus() const { return e_cpu_; }
  Bytes effective_memory() const { return e_mem_; }
  CpuBounds cpu_bounds() const { return bounds_; }
  Bytes mem_soft_limit() const { return soft_limit_; }
  Bytes mem_hard_limit() const { return hard_limit_; }

  // --- policy management (runtime-writable via /sys/arv/policy/<c>/) -------
  const Params& params() const { return params_; }
  const std::string& cpu_policy_name() const { return params_.cpu_policy; }
  const std::string& mem_policy_name() const { return params_.mem_policy; }

  /// Swap one policy for a freshly-created instance of `name`, immediately
  /// re-deriving the effective value under the new policy. False (and no
  /// change) if `name` is not registered.
  bool set_cpu_policy(const std::string& name);
  bool set_mem_policy(const std::string& name);

  /// Replace the knob set. Recreates both policies (they capture Params at
  /// construction), so the prediction state restarts. False (and no
  /// change) if `next` fails valid() or names an unknown policy.
  bool set_params(const Params& next);

  // --- configuration-change hooks (called by Ns_Monitor) -------------------
  /// Recompute Algorithm 1's static bounds from cgroup settings. `total_ram`
  /// caps the memory limits; `total_shares` is Σ cpu.shares over containers.
  void refresh_cpu_bounds(const cgroup::Tree& tree);
  void refresh_mem_limits(const cgroup::Tree& tree, Bytes total_ram);

  // --- periodic updates (called by Ns_Monitor every scheduling period) -----
  /// One CPU-policy decision (Algorithm 1's lines 8-17 slot), clamped into
  /// [lower, upper].
  void update_cpu(const CpuObservation& obs);

  /// One memory-policy decision (Algorithm 2's slot), clamped into
  /// [soft, hard]. No-op until the limits are first refreshed.
  void update_mem(const MemObservation& obs);

  std::uint64_t cpu_updates() const { return cpu_updates_; }
  std::uint64_t mem_updates() const { return mem_updates_; }

  /// Per-reason tallies of every update_cpu()/update_mem() round.
  const DecisionCounters& cpu_decisions() const { return cpu_decisions_; }
  const DecisionCounters& mem_decisions() const { return mem_decisions_; }

 private:
  void apply_cpu_bounds();
  void apply_mem_limits();
  MemBounds mem_bounds() const { return {soft_limit_, hard_limit_}; }

  cgroup::CgroupId cgroup_;
  Params params_;

  std::unique_ptr<CpuPolicy> cpu_policy_;
  std::unique_ptr<MemPolicy> mem_policy_;

  CpuBounds bounds_;
  int e_cpu_ = 1;

  Bytes soft_limit_ = 0;
  Bytes hard_limit_ = 0;
  Bytes e_mem_ = 0;

  std::uint64_t cpu_updates_ = 0;
  std::uint64_t mem_updates_ = 0;
  DecisionCounters cpu_decisions_;
  DecisionCounters mem_decisions_;
};

}  // namespace arv::core
