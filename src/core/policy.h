// The adaptation-policy layer.
//
// A CpuPolicy decides the next effective-CPU value and a MemPolicy the next
// effective-memory value from (bounds, observation, current state);
// SysNamespace owns one instance of each, clamps their decisions into the
// static bounds, and counts the decision reasons. The interfaces keep the
// algorithm out of SysNamespace; the policy is stateful per container (the
// paper's memory policy carries the previous-window prediction snapshot).
//
// Two policies, selected per container by name:
//   "paper"   Algorithms 1/2 exactly as published (the default).
//   "static"  LXCFS / cgroup-namespace comparator: export the
//             administrator-set limits, never react to allocation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/core/params.h"
#include "src/util/types.h"

namespace arv::core {

/// Static CPU bounds derived from cgroup settings (Algorithm 1, lines 4-5).
struct CpuBounds {
  int lower = 1;
  int upper = 1;
};

/// Inputs to one effective-CPU update (Algorithm 1, lines 8-17).
struct CpuObservation {
  CpuTime usage;        ///< container CPU time consumed in the window
  SimDuration window;   ///< window length t
  bool host_has_slack;  ///< pslack > 0 during the window
};

/// Inputs to one effective-memory update (Algorithm 2).
struct MemObservation {
  Bytes free;           ///< system-wide current free memory (cfree)
  Bytes usage;          ///< container's current memory usage (cmem)
  bool kswapd_active;   ///< kswapd currently reclaiming
  Bytes low_mark;       ///< LOW_MARK watermark
  Bytes high_mark;      ///< HIGH_MARK watermark
};

/// Why a policy's update moved (or did not move) the effective value. The
/// kClamped reason is assigned by SysNamespace when the static bounds, not
/// the policy, determined the final value.
enum class Decision {
  kHeld,
  kGrew,
  kShrank,
  kClamped,
  kReset,
};

/// Stable lower-case label ("held", "grew", ...) for traces and pseudo-files.
const char* decision_name(Decision d);

/// Per-reason counters, advanced once per update_cpu()/update_mem() round.
struct DecisionCounters {
  std::uint64_t held = 0;
  std::uint64_t grew = 0;
  std::uint64_t shrank = 0;
  std::uint64_t clamped = 0;
  std::uint64_t reset = 0;

  void count(Decision d);
  std::uint64_t total() const { return held + grew + shrank + clamped + reset; }
};

struct CpuDecision {
  int e_cpu = 1;
  Decision reason = Decision::kHeld;
};

struct MemDecision {
  Bytes e_mem = 0;
  Decision reason = Decision::kHeld;
};

/// The memory limits a MemPolicy decides within (Algorithm 2's [soft, hard]).
struct MemBounds {
  Bytes soft = 0;
  Bytes hard = 0;
};

/// Vertical-adaptivity policy for effective CPUs. Implementations may return
/// values outside [bounds.lower, bounds.upper]; SysNamespace clamps and
/// records the clamp as the decision reason.
class CpuPolicy {
 public:
  virtual ~CpuPolicy() = default;

  /// The kPolicyNames entry this instance was created under.
  virtual std::string name() const = 0;

  /// False for comparators that export static limits and never react to
  /// allocation (invariant tests skip the adaptivity checks for these).
  virtual bool adaptive() const { return true; }

  /// Re-derive the exported value after a bounds change (container creation
  /// included; `current` is the pre-refresh value). Not counted as an update.
  virtual CpuDecision on_bounds(const CpuBounds& bounds, int current) = 0;

  /// One periodic decision (Algorithm 1's line 8-17 slot).
  virtual CpuDecision update(const CpuBounds& bounds, const CpuObservation& obs,
                             int current) = 0;
};

/// Vertical-adaptivity policy for effective memory; same contract as
/// CpuPolicy, over [bounds.soft, bounds.hard].
class MemPolicy {
 public:
  virtual ~MemPolicy() = default;

  virtual std::string name() const = 0;
  virtual bool adaptive() const { return true; }

  /// Re-derive the exported value after a limit change (`current` is 0 before
  /// the first refresh).
  virtual MemDecision on_limits(const MemBounds& bounds, Bytes current) = 0;

  /// One periodic decision (Algorithm 2's slot).
  virtual MemDecision update(const MemBounds& bounds, const MemObservation& obs,
                             Bytes current) = 0;
};

/// Every policy name, in the order `/sys/arv/policy/available` lists them.
inline constexpr std::array<std::string_view, 2> kPolicyNames = {"paper",
                                                                 "static"};

/// Instantiate the named policy with the container's Params; nullptr for a
/// name outside kPolicyNames.
std::unique_ptr<CpuPolicy> make_cpu_policy(std::string_view name,
                                           const Params& params);
std::unique_ptr<MemPolicy> make_mem_policy(std::string_view name,
                                           const Params& params);

}  // namespace arv::core
