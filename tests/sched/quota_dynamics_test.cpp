// Scheduler dynamics that the basic tests don't reach: knob changes while
// running, quota/period alignment, extreme weights, consumer churn.
#include <gtest/gtest.h>

#include "src/sched/fair_scheduler.h"
#include "src/sim/engine.h"
#include "tests/testing/fake_consumer.h"

namespace arv::sched {
namespace {

using arv::testing::FakeConsumer;
using namespace arv::units;

struct Fixture {
  explicit Fixture(int cpus) : tree(cpus), sched(tree, cpus) {
    engine.add_component(&sched);
  }
  sim::Engine engine{1 * msec};
  cgroup::Tree tree;
  FairScheduler sched;
};

TEST(SchedDynamics, QuotaChangeMidFlightTakesEffectNextPeriod) {
  Fixture f(8);
  const auto a = f.tree.create("a");
  FakeConsumer ca(8);
  f.sched.attach(a, &ca);
  f.engine.run_for(1 * sec);
  const CpuTime unrestricted = ca.total();
  EXPECT_EQ(unrestricted, 8 * sec);
  f.tree.set_cfs_quota(a, 200000);  // 2 CPUs from now on
  f.engine.run_for(1 * sec);
  const CpuTime second_phase = ca.total() - unrestricted;
  EXPECT_NEAR(static_cast<double>(second_phase), static_cast<double>(2 * sec),
              static_cast<double>(250 * msec));  // first period still burning old runtime
}

TEST(SchedDynamics, ShortPeriodRefillsProportionally) {
  Fixture f(8);
  const auto a = f.tree.create("a");
  f.tree.set_cfs_period(a, 10000);  // 10 ms period
  f.tree.set_cfs_quota(a, 5000);    // half a CPU
  FakeConsumer ca(4);
  f.sched.attach(a, &ca);
  f.engine.run_for(1 * sec);
  EXPECT_NEAR(static_cast<double>(ca.total()), static_cast<double>(sec / 2),
              static_cast<double>(20 * msec));
}

TEST(SchedDynamics, SharesChangeShiftsAllocationImmediately) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  FakeConsumer ca(4);
  FakeConsumer cb(4);
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  f.engine.run_for(1 * sec);
  const double before =
      static_cast<double>(ca.total()) / static_cast<double>(cb.total());
  EXPECT_NEAR(before, 1.0, 0.05);
  f.tree.set_cpu_shares(a, 3072);  // 3:1
  const CpuTime a0 = ca.total();
  const CpuTime b0 = cb.total();
  f.engine.run_for(1 * sec);
  const double after = static_cast<double>(ca.total() - a0) /
                       static_cast<double>(cb.total() - b0);
  EXPECT_NEAR(after, 3.0, 0.1);
}

TEST(SchedDynamics, ExtremeWeightStillConserves) {
  Fixture f(4);
  const auto whale = f.tree.create("whale");
  const auto shrimp = f.tree.create("shrimp");
  f.tree.set_cpu_shares(whale, 262144);
  f.tree.set_cpu_shares(shrimp, 2);
  FakeConsumer cw(8);
  FakeConsumer cs(8);
  f.sched.attach(whale, &cw);
  f.sched.attach(shrimp, &cs);
  f.engine.run_for(1 * sec);
  // Conservation holds and the shrimp still gets *something* (water-filling
  // always offers each hungry claimant its weighted share).
  EXPECT_NEAR(static_cast<double>(cw.total() + cs.total()),
              static_cast<double>(4 * sec), static_cast<double>(10 * msec));
  EXPECT_GT(cs.total(), 0);
  EXPECT_GT(cw.total(), cs.total() * 100);
}

TEST(SchedDynamics, CpusetChangeMidFlight) {
  Fixture f(8);
  const auto a = f.tree.create("a");
  FakeConsumer ca(8);
  f.sched.attach(a, &ca);
  f.engine.run_for(100 * msec);
  EXPECT_EQ(ca.total(), 8 * 100 * msec);
  f.tree.set_cpuset(a, CpuSet::first_n(2));
  const CpuTime before = ca.total();
  f.engine.run_for(100 * msec);
  EXPECT_EQ(ca.total() - before, 2 * 100 * msec);
}

TEST(SchedDynamics, ConsumerChurnKeepsAccounting) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  for (int round = 0; round < 10; ++round) {
    FakeConsumer transient(2);
    f.sched.attach(a, &transient);
    f.engine.run_for(50 * msec);
    f.sched.detach(a, &transient);
    f.engine.run_for(10 * msec);
  }
  // Cumulative usage equals 10 rounds of 2 CPUs for 50 ms each.
  EXPECT_EQ(f.sched.total_usage(a), 10 * 2 * 50 * msec);
}

TEST(SchedDynamics, ThrottledTimeAccumulatesOnlyUnderQuota) {
  Fixture f(8);
  const auto free_cg = f.tree.create("free");
  const auto capped = f.tree.create("capped");
  f.tree.set_cfs_quota(capped, 100000);  // 1 CPU
  FakeConsumer cf(2);
  FakeConsumer cc(4);
  f.sched.attach(free_cg, &cf);
  f.sched.attach(capped, &cc);
  f.engine.run_for(1 * sec);
  EXPECT_EQ(f.sched.throttled_time(free_cg), 0);
  // 4 threads wanted, 1 CPU granted: ~3 CPU-seconds of demand throttled.
  EXPECT_NEAR(static_cast<double>(f.sched.throttled_time(capped)),
              static_cast<double>(3 * sec), static_cast<double>(300 * msec));
}

TEST(SchedDynamics, NestedCgroupInheritsParentConstraints) {
  // A consumer attached to a *child* cgroup is bounded by the parent's
  // cpuset and quota (effective_* walk the path to the root).
  Fixture f(8);
  const auto parent = f.tree.create("pod");
  const auto child = f.tree.create("container", parent);
  f.tree.set_cpuset(parent, CpuSet::first_n(4));
  f.tree.set_cfs_quota(parent, 200000);  // 2 CPUs
  FakeConsumer cc(8);
  f.sched.attach(child, &cc);
  f.engine.run_for(1 * sec);
  // The child itself has no limits; the parent's quota binds.
  EXPECT_NEAR(static_cast<double>(cc.total()), static_cast<double>(2 * sec),
              static_cast<double>(100 * msec));
  // Tightening the child below the parent binds further.
  f.tree.set_cpuset(child, CpuSet::first_n(1));
  const CpuTime before = cc.total();
  f.engine.run_for(1 * sec);
  EXPECT_NEAR(static_cast<double>(cc.total() - before),
              static_cast<double>(1 * sec), static_cast<double>(50 * msec));
}

}  // namespace
}  // namespace arv::sched
