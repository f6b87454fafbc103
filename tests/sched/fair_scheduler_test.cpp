#include "src/sched/fair_scheduler.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>

#include "src/sim/engine.h"
#include "tests/testing/fake_consumer.h"

namespace arv::sched {
namespace {

using arv::testing::FakeConsumer;
using namespace arv::units;

constexpr SimDuration kTick = 1 * msec;

/// Drives `scheduler` for `ticks` ticks of 1 ms.
void run_ticks(sim::Engine& engine, int ticks) {
  engine.run_for(ticks * kTick);
}

struct Fixture {
  explicit Fixture(int cpus) : tree(cpus), sched(tree, cpus) {
    engine.add_component(&sched);
  }
  sim::Engine engine{kTick};
  cgroup::Tree tree;
  FairScheduler sched;
};

TEST(FairScheduler, SingleContainerGetsItsDemand) {
  Fixture f(4);
  const auto cg = f.tree.create("a");
  FakeConsumer consumer(2);
  f.sched.attach(cg, &consumer);
  run_ticks(f.engine, 100);
  // 2 threads on 4 CPUs: demand fully met, 100 ticks * 2ms.
  EXPECT_EQ(consumer.total(), 200 * msec);
  EXPECT_EQ(f.sched.total_usage(cg), 200 * msec);
}

TEST(FairScheduler, DemandCappedByOnlineCpus) {
  Fixture f(4);
  const auto cg = f.tree.create("a");
  FakeConsumer consumer(16);
  f.sched.attach(cg, &consumer);
  run_ticks(f.engine, 50);
  EXPECT_EQ(consumer.total(), 4 * 50 * msec);
}

TEST(FairScheduler, EqualSharesSplitEqually) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  FakeConsumer ca(8);
  FakeConsumer cb(8);
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  run_ticks(f.engine, 100);
  EXPECT_NEAR(static_cast<double>(ca.total()), static_cast<double>(cb.total()),
              static_cast<double>(2 * msec));
  EXPECT_NEAR(static_cast<double>(ca.total() + cb.total()),
              static_cast<double>(400 * msec), static_cast<double>(msec));
}

TEST(FairScheduler, SharesWeightAllocation) {
  Fixture f(6);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  f.tree.set_cpu_shares(a, 2048);
  f.tree.set_cpu_shares(b, 1024);
  FakeConsumer ca(8);
  FakeConsumer cb(8);
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  run_ticks(f.engine, 100);
  // 2:1 split of 6 CPUs => 4 vs 2.
  const double ratio =
      static_cast<double>(ca.total()) / static_cast<double>(cb.total());
  EXPECT_NEAR(ratio, 2.0, 0.05);
}

TEST(FairScheduler, WorkConservingWhenPeerIsIdle) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  FakeConsumer ca(8);
  FakeConsumer cb(0);  // idle container
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  run_ticks(f.engine, 50);
  // a soaks up the whole machine despite equal shares.
  EXPECT_EQ(ca.total(), 4 * 50 * msec);
  EXPECT_EQ(cb.total(), 0);
}

TEST(FairScheduler, QuotaThrottles) {
  Fixture f(8);
  const auto a = f.tree.create("a");
  f.tree.set_cfs_quota(a, 200000);  // 2 CPUs worth per 100ms period
  FakeConsumer ca(8);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 1000);  // 10 periods
  // 2 CPUs * 1s = 2s of CPU time despite 8 runnable threads.
  EXPECT_NEAR(static_cast<double>(ca.total()), static_cast<double>(2 * sec),
              static_cast<double>(40 * msec));
  EXPECT_GT(f.sched.throttled_time(a), 0);
}

TEST(FairScheduler, QuotaRefillsEachPeriod) {
  Fixture f(8);
  const auto a = f.tree.create("a");
  f.tree.set_cfs_quota(a, 50000);  // 0.5 CPU
  FakeConsumer ca(4);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 100);  // one period
  const CpuTime after_one = ca.total();
  run_ticks(f.engine, 100);  // second period
  EXPECT_NEAR(static_cast<double>(ca.total()), 2.0 * static_cast<double>(after_one),
              static_cast<double>(5 * msec));
}

TEST(FairScheduler, CpusetCapsAllocation) {
  Fixture f(8);
  const auto a = f.tree.create("a");
  f.tree.set_cpuset(a, CpuSet::first_n(2));
  FakeConsumer ca(8);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 100);
  EXPECT_EQ(ca.total(), 2 * 100 * msec);
}

TEST(FairScheduler, OverlappingCpusetsShareTheirCpus) {
  Fixture f(8);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  // Both pinned to the same two CPUs; six other CPUs stay idle.
  f.tree.set_cpuset(a, *CpuSet::parse("0-1"));
  f.tree.set_cpuset(b, *CpuSet::parse("0-1"));
  FakeConsumer ca(4);
  FakeConsumer cb(4);
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  run_ticks(f.engine, 100);
  // The pair cannot exceed the 2 pinned CPUs even though the host has 8.
  EXPECT_NEAR(static_cast<double>(ca.total() + cb.total()),
              static_cast<double>(2 * 100 * msec), static_cast<double>(2 * msec));
  EXPECT_NEAR(static_cast<double>(ca.total()), static_cast<double>(cb.total()),
              static_cast<double>(2 * msec));
}

TEST(FairScheduler, DisjointCpusetsDoNotCompete) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  f.tree.set_cpuset(a, *CpuSet::parse("0-1"));
  f.tree.set_cpuset(b, *CpuSet::parse("2-3"));
  FakeConsumer ca(4);
  FakeConsumer cb(1);
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  run_ticks(f.engine, 100);
  EXPECT_EQ(ca.total(), 2 * 100 * msec);  // capped by own mask
  EXPECT_EQ(cb.total(), 1 * 100 * msec);  // single thread
}

TEST(FairScheduler, SlackAccountsIdleCapacity) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  FakeConsumer ca(1);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 10);
  // 3 of 4 CPUs idle each tick.
  EXPECT_EQ(f.sched.total_slack(), 3 * 10 * msec);
  EXPECT_EQ(f.sched.last_tick_slack(), 3 * msec);
}

TEST(FairScheduler, NoSlackWhenSaturated) {
  Fixture f(2);
  const auto a = f.tree.create("a");
  FakeConsumer ca(4);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 10);
  EXPECT_EQ(f.sched.last_tick_slack(), 0);
}

TEST(FairSchedulerDeath, SecondAttachToOneCgroupAborts) {
  // A cgroup's consumer is its container's whole thread population.
  Fixture f(4);
  const auto a = f.tree.create("a");
  FakeConsumer first(3);
  FakeConsumer second(1);
  f.sched.attach(a, &first);
  EXPECT_DEATH(f.sched.attach(a, &second), "at most one consumer");
  EXPECT_DEATH(f.sched.attach(a, &first), "at most one consumer");
  // Once the first consumer detaches, another may take its place.
  f.sched.detach(a, &second);  // not a's consumer: no effect
  EXPECT_TRUE(f.sched.attached(a));
  f.sched.detach(a, &first);
  f.sched.attach(a, &second);
  run_ticks(f.engine, 10);
  EXPECT_EQ(first.total(), 0);
  EXPECT_EQ(second.total(), 10 * msec);
}

TEST(FairScheduler, DetachStopsGrants) {
  Fixture f(2);
  const auto a = f.tree.create("a");
  FakeConsumer ca(2);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 10);
  const CpuTime before = ca.total();
  f.sched.detach(a, &ca);
  run_ticks(f.engine, 10);
  EXPECT_EQ(ca.total(), before);
  EXPECT_FALSE(f.sched.attached(a));
  // Historical usage survives detach.
  EXPECT_EQ(f.sched.total_usage(a), before);
}

TEST(FairScheduler, SchedulingPeriodTracksRunnableTasks) {
  Fixture f(32);
  const auto a = f.tree.create("a");
  FakeConsumer ca(4);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 1);
  EXPECT_EQ(f.sched.scheduling_period(), 24 * msec);  // <= 8 tasks
  ca.set_threads(16);
  run_ticks(f.engine, 1);
  EXPECT_EQ(f.sched.scheduling_period(), 16 * 3 * msec);
}

TEST(FairScheduler, LoadavgTracksRunnableCount) {
  Fixture f(8);
  f.sched.set_loadavg_decay(0.998);  // shorten the window for the test
  const auto a = f.tree.create("a");
  FakeConsumer ca(6);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 4000);
  EXPECT_NEAR(f.sched.loadavg(), 6.0, 0.2);
  ca.set_threads(0);
  run_ticks(f.engine, 6000);
  EXPECT_NEAR(f.sched.loadavg(), 0.0, 0.2);
}

TEST(FairScheduler, AccrueIdleOnAZeroLoadAverageMatchesTickByTick) {
  // One scheduler ticks through idle gaps, the other jumps them with
  // accrue_idle; busy ticks afterwards would expose an average left
  // unprimed. Bits, not values: -0.0 == 0.0 would hide a sign slip.
  const auto bits = [](const FairScheduler& s) {
    return std::bit_cast<std::uint64_t>(s.loadavg());
  };
  struct Start {
    bool seeded;
    double value;
    double decay;
  };
  const Start starts[] = {
      {false, 0.0, 0.99993}, {true, 0.0, 0.99993}, {true, -0.0, 0.99993},
      {true, 2.5, 0.99993},  {true, 1.0, 0.5},  // the last decays to 0 mid-gap
  };
  for (std::size_t i = 0; i < std::size(starts); ++i) {
    SCOPED_TRACE(i);
    const Start& start = starts[i];
    Fixture stepped(4);
    Fixture jumped(4);
    for (Fixture* f : {&stepped, &jumped}) {
      f->sched.set_loadavg_decay(start.decay);
      if (start.seeded) {
        f->sched.seed_loadavg(start.value);
      }
    }
    for (const int gap : {1, 2000, 2000}) {
      run_ticks(stepped.engine, gap);
      jumped.sched.accrue_idle(gap * kTick, kTick);
      ASSERT_EQ(bits(stepped.sched), bits(jumped.sched)) << gap;
    }
    FakeConsumer busy_stepped(3);
    FakeConsumer busy_jumped(3);
    stepped.sched.attach(stepped.tree.create("a"), &busy_stepped);
    jumped.sched.attach(jumped.tree.create("a"), &busy_jumped);
    run_ticks(stepped.engine, 5);
    run_ticks(jumped.engine, 5);
    EXPECT_NE(stepped.sched.loadavg(), 0.0);
    EXPECT_EQ(bits(stepped.sched), bits(jumped.sched));
  }
}

TEST(FairScheduler, UnknownCgroupReportsZero) {
  Fixture f(2);
  EXPECT_EQ(f.sched.total_usage(999), 0);
  EXPECT_EQ(f.sched.throttled_time(999), 0);
}

TEST(FairScheduler, DestroyedCgroupSkippedGracefully) {
  Fixture f(2);
  const auto a = f.tree.create("a");
  FakeConsumer ca(2);
  f.sched.attach(a, &ca);
  run_ticks(f.engine, 5);
  f.tree.destroy(a);
  run_ticks(f.engine, 5);  // must not crash; no more grants
  EXPECT_EQ(ca.total(), 2 * 5 * msec);
}

// --- property sweep: conservation and fairness across configurations -------

// gtest names each instance after a byte dump of its parameter, so the
// padding is spelled out as a zeroed field: left implicit, it would hold stack
// garbage and the test names would change from one build to the next.
struct SweepParam {
  SweepParam(int c, int n, int t, std::int64_t q)
      : cpus(c), containers(n), threads_each(t), quota_us(q) {}
  int cpus;
  int containers;
  int threads_each;
  std::int32_t pad = 0;
  std::int64_t quota_us;  // kUnlimited or value
};

class SchedulerSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SchedulerSweep, ConservationAndBounds) {
  const SweepParam p = GetParam();
  Fixture f(p.cpus);
  std::vector<std::unique_ptr<FakeConsumer>> consumers;
  std::vector<cgroup::CgroupId> ids;
  for (int i = 0; i < p.containers; ++i) {
    const auto cg = f.tree.create("c" + std::to_string(i));
    if (p.quota_us != kUnlimited) {
      f.tree.set_cfs_quota(cg, p.quota_us);
    }
    consumers.push_back(std::make_unique<FakeConsumer>(p.threads_each));
    f.sched.attach(cg, consumers.back().get());
    ids.push_back(cg);
  }
  constexpr int kTicks = 200;
  run_ticks(f.engine, kTicks);

  // Conservation: total grants + slack == capacity (within rounding).
  CpuTime granted = 0;
  for (const auto& c : consumers) {
    granted += c->total();
  }
  const CpuTime capacity = static_cast<CpuTime>(p.cpus) * kTicks * msec;
  EXPECT_LE(granted, capacity + p.cpus * kTicks);  // rounding slop
  EXPECT_NEAR(static_cast<double>(granted + f.sched.total_slack()),
              static_cast<double>(capacity), static_cast<double>(p.cpus * kTicks));

  // No container exceeds its thread demand or its quota.
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    EXPECT_LE(consumers[i]->total(),
              static_cast<CpuTime>(p.threads_each) * kTicks * msec + kTicks);
    if (p.quota_us != kUnlimited) {
      const CpuTime quota_cap = p.quota_us * (kTicks / 100) + p.quota_us;
      EXPECT_LE(consumers[i]->total(), quota_cap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedulerSweep,
    ::testing::Values(SweepParam{1, 1, 1, kUnlimited},
                      SweepParam{4, 2, 8, kUnlimited},
                      SweepParam{20, 5, 10, kUnlimited},
                      SweepParam{20, 10, 2, kUnlimited},
                      SweepParam{8, 3, 4, 200000},
                      SweepParam{16, 4, 16, 400000},
                      SweepParam{2, 6, 3, 50000},
                      SweepParam{32, 8, 8, kUnlimited}));

}  // namespace
}  // namespace arv::sched
