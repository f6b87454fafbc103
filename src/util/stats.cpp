#include "src/util/stats.h"

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

}  // namespace arv
