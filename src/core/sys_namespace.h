// SysNamespace — the paper's central data structure (§3.1).
//
// One instance per container. Maintains the container's *effective* CPU
// count (Algorithm 1) and *effective* memory size (Algorithm 2), i.e. the
// resources the container can actually use right now given its cgroup
// limits, its share of contention, and the host's current slack. The
// Ns_Monitor drives the periodic updates; the virtual sysfs answers
// application queries from these values.
//
// As in the paper's sys_namespace, the instance runs the algorithms itself:
// each update computes an unclamped intent, clamps it into the static
// bounds, and records why the value moved in per-reason decision counters.
// The one policy selector (Params::policy) picks "paper" (Algorithms 1/2) or
// "static" (the LXCFS comparator: E_CPU pinned to UPPER and E_MEM to the
// hard limit).
#pragma once

#include <optional>
#include <string>

#include "src/core/params.h"
#include "src/core/policy.h"
#include "src/proc/process.h"
#include "src/util/types.h"

namespace arv::core {

class SysNamespace final : public proc::Namespace {
 public:
  /// `params` must be valid() and name a policy from kPolicyNames.
  SysNamespace(cgroup::CgroupId cgroup, Params params);

  cgroup::CgroupId cgroup() const { return cgroup_; }

  // --- queries (what the virtual sysfs exports) ----------------------------
  int effective_cpus() const { return e_cpu_; }
  Bytes effective_memory() const { return e_mem_; }
  CpuBounds cpu_bounds() const { return bounds_; }
  Bytes mem_soft_limit() const { return soft_limit_; }
  Bytes mem_hard_limit() const { return hard_limit_; }

  // --- policy management (runtime-writable via /sys/arv/policy/<c>/) -------
  const Params& params() const { return params_; }
  const std::string& policy_name() const { return params_.policy; }

  /// Switch the policy to `name`, immediately re-deriving both effective
  /// values under it; Algorithm 2's prediction snapshot restarts. False
  /// (and no change) if `name` is not in kPolicyNames.
  bool set_policy(const std::string& name);

  /// Replace the knob set (policy included); the prediction snapshot
  /// restarts. False (and no change) if `next` fails valid() or names an
  /// unknown policy.
  bool set_params(const Params& next);

  // --- configuration-change hooks (called by Ns_Monitor) -------------------
  /// Recompute Algorithm 1's static bounds from cgroup settings. `total_ram`
  /// caps the memory limits; `total_shares` is Σ cpu.shares over containers.
  void refresh_cpu_bounds(const cgroup::Tree& tree);
  void refresh_mem_limits(const cgroup::Tree& tree, Bytes total_ram);

  // --- periodic updates (called by Ns_Monitor every scheduling period) -----
  /// One effective-CPU decision (Algorithm 1, lines 8-17), clamped into
  /// [lower, upper].
  void update_cpu(const CpuObservation& obs);

  /// One effective-memory decision (Algorithm 2), clamped into [soft, hard].
  /// No-op until the limits are first refreshed.
  void update_mem(const MemObservation& obs);

  std::uint64_t cpu_updates() const { return cpu_updates_; }
  std::uint64_t mem_updates() const { return mem_updates_; }

  /// Per-reason tallies of every update_cpu()/update_mem() round.
  const DecisionCounters& cpu_decisions() const { return cpu_decisions_; }
  const DecisionCounters& mem_decisions() const { return mem_decisions_; }

 private:
  bool is_static() const { return params_.policy == "static"; }
  /// Re-derive the exported values after a bounds, limit or policy change
  /// (container creation included). Not counted as an update.
  void apply_cpu_bounds();
  void apply_mem_limits();
  /// Re-derive both values under the current policy and restart Algorithm
  /// 2's prediction snapshot (a policy or knob change).
  void restart();
  /// Algorithm 2, line 8: the predicted system-free-memory drop if `delta`
  /// bytes were granted now.
  Bytes predicted_drop(const MemObservation& obs, Bytes delta) const;

  cgroup::CgroupId cgroup_;
  Params params_;

  CpuBounds bounds_;
  int e_cpu_ = 1;

  Bytes soft_limit_ = 0;
  Bytes hard_limit_ = 0;
  Bytes e_mem_ = 0;

  /// Algorithm 2's previous-window snapshot of (cfree, cmem).
  std::optional<Bytes> prev_free_;
  std::optional<Bytes> prev_usage_;

  std::uint64_t cpu_updates_ = 0;
  std::uint64_t mem_updates_ = 0;
  DecisionCounters cpu_decisions_;
  DecisionCounters mem_decisions_;
};

}  // namespace arv::core
