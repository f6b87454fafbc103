// Small statistics helpers: the scheduler's load averages (Ema) and the
// nearest-rank window percentiles behind the cluster's usage profiles and
// VPA recommendations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "src/util/assert.h"

namespace arv {

/// Exponentially weighted moving average, the same shape the kernel uses for
/// /proc/loadavg: next = decay * prev + (1 - decay) * sample.
class Ema {
 public:
  /// `decay` in (0, 1); closer to 1 means a longer memory.
  explicit Ema(double decay) : decay_(decay) {}

  void add(double sample);
  double value() const { return value_; }
  bool primed() const { return primed_; }
  void reset();

  /// Force the current value (e.g. seeding a load average with history).
  void prime(double value) {
    value_ = value;
    primed_ = true;
  }

 private:
  double decay_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// Nearest-rank percentile over an integer sample window: 1-based rank =
/// ceil(n * p / 100), no interpolation, no floating point, so profiles and
/// autoscaler recommendations are bit-identical on every platform.
template <typename T>
T nearest_rank(const std::deque<T>& window, int p) {
  ARV_ASSERT(!window.empty());
  std::vector<T> sorted(window.begin(), window.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t rank =
      (sorted.size() * static_cast<std::size_t>(p) + 99) / 100;
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace arv
