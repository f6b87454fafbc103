#include "src/jvm/adaptive_sizing.h"

#include <gtest/gtest.h>

namespace arv::jvm {
namespace {

using namespace arv::units;

MinorObservation minor_obs(SimDuration pause, SimDuration interval) {
  MinorObservation obs;
  obs.pause = pause;
  obs.mutator_interval = interval;
  obs.young_committed = 100 * MiB;
  obs.old_committed = 200 * MiB;
  obs.old_used = 50 * MiB;
  return obs;
}

TEST(AdaptiveSizePolicy, GrowsYoungWhenGcsAreBackToBack) {
  AdaptiveSizePolicy policy;
  // Interval of 10 pauses < the grow ratio (15) => grow.
  const auto d = policy.after_minor(minor_obs(10 * msec, 100 * msec));
  EXPECT_EQ(d.young_target, 150 * MiB);
  EXPECT_EQ(d.old_target, 200 * MiB);  // old untouched at 25% usage
}

TEST(AdaptiveSizePolicy, ShrinksYoungWhenMutatorRunsLong) {
  AdaptiveSizePolicy policy;
  const auto d = policy.after_minor(minor_obs(10 * msec, 2000 * msec));
  EXPECT_EQ(d.young_target, 85 * MiB);
}

TEST(AdaptiveSizePolicy, StableBetweenThresholds) {
  AdaptiveSizePolicy policy;
  const auto d = policy.after_minor(minor_obs(10 * msec, 500 * msec));
  EXPECT_EQ(d.young_target, 100 * MiB);
}

TEST(AdaptiveSizePolicy, GrowsOldAboveTrigger) {
  AdaptiveSizePolicy policy;
  auto obs = minor_obs(10 * msec, 500 * msec);
  obs.old_used = 150 * MiB;  // 75% > 70% trigger
  const auto d = policy.after_minor(obs);
  EXPECT_EQ(d.old_target, 225 * MiB);  // used * 1.5 headroom
}

TEST(AdaptiveSizePolicy, ZeroPauseHandled) {
  AdaptiveSizePolicy policy;
  const auto d = policy.after_minor(minor_obs(0, 0));
  // interval 0 < 15 * max(pause,1) => grow path, no crash.
  EXPECT_GT(d.young_target, 100 * MiB);
}

TEST(AdaptiveSizePolicy, AfterMajorRecentersOld) {
  AdaptiveSizePolicy policy;
  MajorObservation obs;
  obs.old_live = 100 * MiB;
  obs.old_committed = 600 * MiB;
  obs.young_committed = 100 * MiB;
  const auto d = policy.after_major(obs);
  // live * 1.5 = 150 MiB, but never below half the current committed.
  EXPECT_EQ(d.old_target, 300 * MiB);
  obs.old_committed = 200 * MiB;
  EXPECT_EQ(policy.after_major(obs).old_target, 150 * MiB);
}

TEST(AdaptiveSizePolicy, GrowThresholdIsFifteenPauses) {
  AdaptiveSizePolicy policy;
  // 14 pauses < 15 => grow young by 1.5x; 16 pauses sits between the grow
  // (15) and shrink (120) thresholds => young unchanged.
  EXPECT_EQ(policy.after_minor(minor_obs(10 * msec, 140 * msec)).young_target,
            150 * MiB);
  EXPECT_EQ(policy.after_minor(minor_obs(10 * msec, 160 * msec)).young_target,
            100 * MiB);
}

}  // namespace
}  // namespace arv::jvm
