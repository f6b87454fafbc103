#include "src/util/stats.h"

#include <algorithm>

#include "src/util/assert.h"

namespace arv {

void Ema::add(double sample) {
  if (!primed_) {
    value_ = sample;
    primed_ = true;
    return;
  }
  value_ = decay_ * value_ + (1.0 - decay_) * sample;
}

void Ema::reset() {
  value_ = 0.0;
  primed_ = false;
}

double percentile(std::vector<double> samples, double p) {
  ARV_ASSERT(p >= 0.0 && p <= 100.0);
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) {
    return samples.front();
  }
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace arv
