#include "src/core/ns_monitor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "tests/testing/fake_consumer.h"

namespace arv::core {
namespace {

using arv::testing::FakeConsumer;
using namespace arv::units;

struct Fixture {
  Fixture()
      : tree(20), sched(tree, 20), mm(tree, mem_config()),
        monitor(engine, tree, sched, mm) {
    engine.add_component(&sched);
    engine.add_component(&mm);
    engine.add_component(&monitor);
  }

  static mem::Config mem_config() {
    mem::Config config;
    config.total_ram = 128 * GiB;
    return config;
  }

  std::shared_ptr<SysNamespace> add_container(const std::string& name) {
    const auto cg = tree.create(name);
    auto ns = std::make_shared<SysNamespace>(cg, Params{});
    monitor.register_ns(ns);
    return ns;
  }

  sim::Engine engine{1 * msec};
  cgroup::Tree tree;
  sched::FairScheduler sched;
  mem::MemoryManager mm;
  NsMonitor monitor;
};

TEST(NsMonitor, RegisterInitializesBoundsAndLimits) {
  Fixture f;
  const auto ns = f.add_container("a");
  EXPECT_EQ(ns->effective_cpus(), 20);
  EXPECT_EQ(ns->effective_memory(), 128 * GiB);
  EXPECT_EQ(f.monitor.registered_count(), 1u);
}

TEST(NsMonitor, LookupFindsRegistered) {
  Fixture f;
  const auto ns = f.add_container("a");
  EXPECT_EQ(f.monitor.lookup(ns->cgroup()), ns);
  EXPECT_EQ(f.monitor.lookup(999), nullptr);
}

TEST(NsMonitor, CgroupChangeRefreshesBoundsImmediately) {
  Fixture f;
  const auto ns = f.add_container("a");
  ASSERT_EQ(ns->cpu_bounds().upper, 20);
  f.tree.set_cfs_quota(ns->cgroup(), 400000);  // 4 CPUs
  // No engine run needed: the cgroup hook fires synchronously.
  EXPECT_EQ(ns->cpu_bounds().upper, 4);
  EXPECT_LE(ns->effective_cpus(), 4);
}

TEST(NsMonitor, NewContainerReshapesPeersShareFraction) {
  Fixture f;
  const auto a = f.add_container("a");
  ASSERT_EQ(a->cpu_bounds().lower, 20);
  f.add_container("b");
  // The peer ripple is coalesced: creating "b" marks the bounds dirty but
  // does O(1) immediate work; "a" still sees its old share fraction.
  EXPECT_TRUE(f.monitor.bounds_refresh_pending());
  EXPECT_EQ(a->cpu_bounds().lower, 20);
  // The next update round applies the refresh before any decisions.
  f.monitor.update_all(1 * msec);
  EXPECT_FALSE(f.monitor.bounds_refresh_pending());
  EXPECT_EQ(a->cpu_bounds().lower, 10);  // share fraction halved
}

TEST(NsMonitor, MemLimitChangeRefreshesLimits) {
  Fixture f;
  const auto ns = f.add_container("a");
  f.tree.set_mem_limit(ns->cgroup(), 2 * GiB);
  EXPECT_EQ(ns->mem_hard_limit(), static_cast<Bytes>(2) * GiB);
}

TEST(NsMonitor, DestroyUnregisters) {
  Fixture f;
  const auto ns = f.add_container("a");
  f.tree.destroy(ns->cgroup());
  EXPECT_EQ(f.monitor.registered_count(), 0u);
}

TEST(NsMonitor, PeriodicUpdatesFireAtSchedulingPeriod) {
  Fixture f;
  const auto ns = f.add_container("a");
  FakeConsumer busy(4);
  f.sched.attach(ns->cgroup(), &busy);
  // Scheduling period is 24 ms with <= 8 tasks -> ~41 updates per second.
  f.engine.run_for(1 * sec);
  EXPECT_GT(ns->cpu_updates(), 30u);
  EXPECT_LT(ns->cpu_updates(), 60u);
  EXPECT_EQ(ns->cpu_updates(), ns->mem_updates());
}

TEST(NsMonitor, EffectiveCpuTracksContention) {
  Fixture f;
  // b exists first so that a's view initializes at LOWER = 10 (line 6 of
  // Algorithm 1 runs at container creation against the current shares).
  const auto b = f.add_container("b");
  const auto a = f.add_container("a");
  // 12 busy threads on 20 CPUs: slack exists and a saturates its effective
  // CPUs, so E_a climbs from LOWER (10) until utilization falls under the
  // 95% threshold (~13).
  FakeConsumer busy_a(12);
  f.sched.attach(a->cgroup(), &busy_a);
  f.engine.run_for(2 * sec);
  EXPECT_GE(a->effective_cpus(), 12);
  EXPECT_LE(a->effective_cpus(), 14);
  // b wakes up and saturates the host: no slack anywhere, so both views
  // retreat to their guaranteed share (lines 14-15).
  FakeConsumer busy_b(20);
  f.sched.attach(b->cgroup(), &busy_b);
  f.engine.run_for(2 * sec);
  EXPECT_EQ(a->effective_cpus(), 10);
  EXPECT_EQ(b->effective_cpus(), 10);
}

TEST(NsMonitor, FixedUpdatePeriodOverridesSchedulingPeriod) {
  Fixture f;
  const auto ns = f.add_container("a");
  FakeConsumer busy(4);
  f.sched.attach(ns->cgroup(), &busy);
  f.monitor.set_fixed_update_period(100 * msec);
  f.engine.run_for(1 * sec);
  // ~10 updates instead of ~41 at the 24 ms scheduling period.
  EXPECT_GE(ns->cpu_updates(), 9u);
  EXPECT_LE(ns->cpu_updates(), 12u);
  // Restoring 0 returns to scheduling-period tracking.
  f.monitor.set_fixed_update_period(0);
  const auto before = ns->cpu_updates();
  f.engine.run_for(1 * sec);
  EXPECT_GT(ns->cpu_updates() - before, 30u);
}

TEST(NsMonitor, StaticViewRegistersButStaysStatic) {
  Fixture f;
  const auto cg = f.tree.create("lxcfs");
  Params params;
  params.policy = "static";
  auto ns = std::make_shared<SysNamespace>(cg, params);
  f.monitor.register_ns(ns);
  EXPECT_EQ(ns->effective_cpus(), 20);  // upper bound = whole host, no limits
  FakeConsumer busy(20);
  f.sched.attach(cg, &busy);
  f.tree.create("peer");  // share fraction drops; static view ignores it
  f.engine.run_for(2 * sec);
  EXPECT_EQ(ns->effective_cpus(), 20);
}

TEST(NsMonitor, LateRegistrationWindowStartsAtRegistration) {
  Fixture f;
  f.tree.create("peer");  // share denominator: a's lower (10) < upper (20)
  f.engine.run_for(10 * sec);  // host runs long before the container starts
  const auto a = f.add_container("a");
  ASSERT_EQ(a->effective_cpus(), 10);
  FakeConsumer busy(12);
  f.sched.attach(a->cgroup(), &busy);
  // The first observation window must span registration -> first round
  // (milliseconds), not t=0 -> first round (10 s). 12 busy threads saturate
  // the e_cpu = 10 view, so Algorithm 1 grows it on the very first round; a
  // 10-second window would dilute utilization to ~0 and keep the view stuck.
  f.engine.run_for(30 * msec);
  ASSERT_GE(a->cpu_updates(), 1u);
  EXPECT_GT(a->effective_cpus(), 10);
}

TEST(NsMonitor, MonitorAttachedLateIgnoresHistoricSlack) {
  sim::Engine engine{1 * msec};
  cgroup::Tree tree(20);
  sched::FairScheduler sched(tree, 20);
  mem::MemoryManager mm(tree, Fixture::mem_config());
  engine.add_component(&sched);
  engine.add_component(&mm);
  engine.run_for(1 * sec);  // idle host: 20 CPU-seconds of slack accrue
  ASSERT_GT(sched.total_slack(), 0);

  NsMonitor monitor(engine, tree, sched, mm);
  engine.add_component(&monitor);
  const auto a_cg = tree.create("a");
  tree.create("b");  // a's lower bound (10) is below its upper (20)
  auto ns = std::make_shared<SysNamespace>(a_cg, Params{});
  monitor.register_ns(ns);
  ASSERT_EQ(ns->effective_cpus(), 10);
  // 30 threads saturate all 20 CPUs: from here on the host accrues NO slack.
  FakeConsumer busy(30);
  sched.attach(a_cg, &busy);
  engine.run_for(5 * msec);  // exactly one update round at this period
  ASSERT_GE(ns->cpu_updates(), 1u);
  // The idle second before the monitor existed must not read as "the host
  // had slack during my first window": the seeded baseline sees zero new
  // slack, so the view holds its guaranteed share instead of growing.
  EXPECT_EQ(ns->effective_cpus(), 10);
}

TEST(NsMonitor, CgroupDeletedWhileViewStillReferenced) {
  Fixture f;
  const auto a = f.add_container("a");
  const auto b = f.add_container("b");
  FakeConsumer busy(8);
  f.sched.attach(a->cgroup(), &busy);
  f.engine.run_for(1 * sec);
  const int frozen_cpus = a->effective_cpus();
  const Bytes frozen_mem = a->effective_memory();

  // A cluster-level consumer (placement, a pseudo-file render) may still
  // hold the view when the container dies. Destroying the cgroup must
  // unregister the namespace without invalidating the outstanding pointer.
  f.sched.detach(a->cgroup(), &busy);
  f.tree.destroy(a->cgroup());
  EXPECT_EQ(f.monitor.registered_count(), 1u);
  EXPECT_EQ(f.monitor.lookup(a->cgroup()), nullptr);

  // The orphaned view is frozen at its last state; update rounds neither
  // touch it nor trip over the missing cgroup.
  f.engine.run_for(1 * sec);
  EXPECT_EQ(a->effective_cpus(), frozen_cpus);
  EXPECT_EQ(a->effective_memory(), frozen_mem);
  EXPECT_GT(b->cpu_updates(), 0u);  // survivors keep updating
  EXPECT_EQ(f.monitor.views().size(), 1u);
}

TEST(NsMonitor, StallSkipsRoundsFreezesViewsThenCatchesUp) {
  Fixture f;
  f.add_container("peer");  // share denominator: a's lower < upper
  const auto a = f.add_container("a");
  FakeConsumer busy(16);
  f.sched.attach(a->cgroup(), &busy);
  f.engine.run_for(1 * sec);
  const auto updates_before = a->cpu_updates();
  const auto rounds_before = f.monitor.update_rounds();
  ASSERT_GT(updates_before, 0u);

  f.monitor.set_stalled(true);
  f.engine.run_for(1 * sec);
  EXPECT_EQ(f.monitor.update_rounds(), rounds_before);
  EXPECT_EQ(a->cpu_updates(), updates_before) << "stalled views must freeze";
  // 16 runnable tasks stretch the scheduling period to 48 ms (3 ms * nr),
  // so ~20 rounds were due across the stalled second.
  EXPECT_GT(f.monitor.stalled_rounds(), 15u);

  // Recovery: windows were not reset, so the first round spans the whole
  // stall and the view moves again immediately.
  f.monitor.set_stalled(false);
  f.engine.run_for(30 * msec);
  EXPECT_GT(a->cpu_updates(), updates_before);
  EXPECT_GT(f.monitor.update_rounds(), rounds_before);
}

// Property: whatever mix of stalls, forced rounds, registrations, and load
// shifts happens, every completed update round makes exactly one decision
// per namespace — the per-reason counters partition the update count.
TEST(NsMonitor, DecisionCountersSumToOnePerRoundUnderStalls) {
  Fixture f;
  std::vector<std::shared_ptr<SysNamespace>> views;
  std::vector<std::unique_ptr<FakeConsumer>> consumers;
  for (int i = 0; i < 3; ++i) {
    const auto ns = f.add_container("c" + std::to_string(i));
    views.push_back(ns);
    consumers.push_back(std::make_unique<FakeConsumer>(4 + 6 * i));
    f.sched.attach(ns->cgroup(), consumers.back().get());
  }
  // Alternate stalled and healthy windows; sprinkle forced rounds in both
  // (explicit update_all works even while the periodic path is wedged).
  for (int phase = 0; phase < 6; ++phase) {
    f.monitor.set_stalled(phase % 2 == 1);
    f.engine.run_for(300 * msec);
    f.monitor.update_all(f.engine.now());
  }
  f.monitor.set_stalled(false);
  f.engine.run_for(300 * msec);

  EXPECT_GT(f.monitor.stalled_rounds(), 0u);
  for (const auto& ns : views) {
    EXPECT_GT(ns->cpu_updates(), 0u);
    EXPECT_EQ(ns->cpu_decisions().total(), ns->cpu_updates())
        << "cpu decision reasons must partition the rounds";
    EXPECT_EQ(ns->mem_decisions().total(), ns->mem_updates())
        << "mem decision reasons must partition the rounds";
    EXPECT_EQ(ns->cpu_updates(), ns->mem_updates());
  }
}

TEST(NsMonitor, UpdateAllCanBeForcedManually) {
  Fixture f;
  const auto ns = f.add_container("a");
  const auto before = ns->cpu_updates();
  f.monitor.update_all(10 * msec);  // nonzero window since registration
  EXPECT_EQ(ns->cpu_updates(), before + 1);
  EXPECT_GE(f.monitor.update_rounds(), 1u);
}

}  // namespace
}  // namespace arv::core
