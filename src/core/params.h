// Tunables of the adaptive resource view, with the paper's defaults.
//
// Params travel with the container (ContainerConfig::view_params): the
// policy *name* selects how the container's view adapts (see
// src/core/policy.h) and the knobs parameterize the "paper" policy. Both are
// runtime-writable through the /sys/arv/policy/<container>/ pseudo-files;
// writes that fail valid() are rejected with a write error, never silently
// accepted.
#pragma once

#include <string>

#include "src/util/cpuset.h"
#include "src/util/types.h"

namespace arv::core {

struct Params {
  /// The container's adaptation policy (core::kPolicyNames), for CPU and
  /// memory alike. The paper's Algorithms 1/2 ("paper") are the default;
  /// "static" reproduces the LXCFS / cgroup-namespace behaviour of §1
  /// (export the administrator-set limits, never react to allocation).
  std::string policy = "paper";

  /// Algorithm 1's UTIL_THRSHD: grow effective CPU when window utilization
  /// of the current effective CPUs exceeds this (paper: 95%).
  double cpu_util_threshold = 0.95;

  /// Effective CPU changes by at most this many CPUs per update ("changes to
  /// effective CPU are limited to 1 per update to prevent abrupt
  /// fluctuations").
  int cpu_step = 1;

  /// Algorithm 2: grow effective memory when the container uses more than
  /// this fraction of it (paper: 90%).
  double mem_use_threshold = 0.90;

  /// Algorithm 2: each growth step is this fraction of the remaining
  /// headroom to the hard limit (paper: 10%).
  double mem_growth_frac = 0.10;

  /// Algorithm 2 lines 8-9: gate growth on the predicted free-memory
  /// impact staying above HIGH_MARK. Disable only for ablation — ungated
  /// growth expands straight into kswapd's territory.
  bool mem_prediction_gate = true;

  /// All knobs inside their legal ranges. SysNamespace asserts this at
  /// construction; the vfs knob files reject writes that would break it.
  /// cpu_step is capped at the CPU-set width so Algorithm 1's
  /// `current + cpu_step` cannot overflow.
  bool valid() const {
    const auto unit = [](double v) { return v > 0.0 && v <= 1.0; };
    return cpu_step >= 1 && cpu_step <= CpuSet::kMaxCpus &&
           unit(cpu_util_threshold) && unit(mem_use_threshold) &&
           unit(mem_growth_frac);
  }
};

}  // namespace arv::core
