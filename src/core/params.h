// Tunables of the adaptive resource view, with the paper's defaults.
//
// Params travel with the container (ContainerConfig::view_params): the
// policy *names* select which adaptation strategy the container runs (see
// src/core/policy.h for the registry) and the knobs parameterize whichever
// policies are selected. Both are runtime-writable through the
// /sys/arv/policy/<container>/ pseudo-files; writes that fail valid() are
// rejected with a write error, never silently accepted.
#pragma once

#include <cmath>
#include <string>

#include "src/util/cpuset.h"
#include "src/util/types.h"

namespace arv::core {

struct Params {
  /// Registry names of the per-container adaptation policies. The paper's
  /// Algorithms 1/2 ("paper") are the default; "static" reproduces the
  /// LXCFS / cgroup-namespace behaviour of §1 (export the administrator-set
  /// limits, never react to allocation).
  std::string cpu_policy = "paper";
  std::string mem_policy = "paper";

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

  /// "ewma" policy: smoothing factor for the exponentially-weighted moving
  /// average of utilization (1.0 = unsmoothed, i.e. the paper's behaviour).
  double ewma_alpha = 0.30;

  /// "ewma" policy: release CPUs when *smoothed* utilization falls below
  /// this (the hysteresis band is [cpu_down_threshold, cpu_util_threshold]).
  double cpu_down_threshold = 0.50;

  /// "ewma" policy: shed effective memory toward the soft limit when the
  /// smoothed usage fraction falls below this.
  double mem_down_threshold = 0.50;

  /// "proportional" policy: gain applied to the utilization error when
  /// sizing a step (higher = more aggressive convergence).
  double prop_gain = 4.0;

  /// All knobs inside their legal ranges. SysNamespace asserts this at
  /// construction; the vfs knob files reject writes that would break it.
  /// cpu_step is capped at the CPU-set width so Algorithm 1's
  /// `current + cpu_step` cannot overflow.
  bool valid() const {
    const auto unit = [](double v) { return v > 0.0 && v <= 1.0; };
    return cpu_step >= 1 && cpu_step <= CpuSet::kMaxCpus &&
           unit(cpu_util_threshold) && unit(mem_use_threshold) &&
           unit(mem_growth_frac) && unit(ewma_alpha) &&
           unit(cpu_down_threshold) && unit(mem_down_threshold) &&
           cpu_down_threshold <= cpu_util_threshold &&
           std::isfinite(prop_gain) && prop_gain > 0.0;
  }
};

}  // namespace arv::core
