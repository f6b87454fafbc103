// The vocabulary of the adaptation policy: the bounds and observations one
// effective-CPU / effective-memory update reads, the reasons an update moved
// (or did not move) the value, and the policy names a container may select.
// SysNamespace (sys_namespace.h) runs the update itself.
//
// Two policies, selected per container by name:
//   "paper"   Algorithms 1/2 exactly as published (the default).
//   "static"  LXCFS / cgroup-namespace comparator: export the
//             administrator-set limits, never react to allocation.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

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

/// Why an update moved (or did not move) the effective value. kClamped means
/// the static bounds, not the policy, determined the final value.
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

/// Every policy name, in the order `/sys/arv/policy/available` lists them.
inline constexpr std::array<std::string_view, 2> kPolicyNames = {"paper",
                                                                 "static"};

}  // namespace arv::core
