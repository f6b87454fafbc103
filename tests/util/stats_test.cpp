#include "src/util/stats.h"

#include <gtest/gtest.h>

namespace arv {
namespace {

TEST(Ema, FirstSamplePrimes) {
  Ema ema(0.9);
  EXPECT_FALSE(ema.primed());
  ema.add(10.0);
  EXPECT_TRUE(ema.primed());
  EXPECT_DOUBLE_EQ(ema.value(), 10.0);
}

TEST(Ema, ConvergesTowardConstant) {
  Ema ema(0.9);
  ema.add(0.0);
  for (int i = 0; i < 200; ++i) {
    ema.add(100.0);
  }
  EXPECT_NEAR(ema.value(), 100.0, 0.01);
}

TEST(Ema, DecayControlsMemory) {
  Ema fast(0.5);
  Ema slow(0.99);
  fast.add(0.0);
  slow.add(0.0);
  for (int i = 0; i < 10; ++i) {
    fast.add(100.0);
    slow.add(100.0);
  }
  EXPECT_GT(fast.value(), slow.value());
}

TEST(Ema, Reset) {
  Ema ema(0.9);
  ema.add(42.0);
  ema.reset();
  EXPECT_FALSE(ema.primed());
  EXPECT_EQ(ema.value(), 0.0);
}

}  // namespace
}  // namespace arv
