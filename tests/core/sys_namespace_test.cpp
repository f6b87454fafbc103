#include "src/core/sys_namespace.h"

#include <gtest/gtest.h>

namespace arv::core {
namespace {

using namespace arv::units;

constexpr SimDuration kWindow = 24 * msec;

CpuObservation busy(int e_cpu, bool slack) {
  // Utilization just above the 95% threshold for `e_cpu` effective CPUs.
  CpuObservation obs;
  obs.window = kWindow;
  obs.usage = static_cast<CpuTime>(0.99 * static_cast<double>(e_cpu) *
                                   static_cast<double>(kWindow));
  obs.host_has_slack = slack;
  return obs;
}

CpuObservation idle_obs(bool slack) {
  CpuObservation obs;
  obs.window = kWindow;
  obs.usage = 0;
  obs.host_has_slack = slack;
  return obs;
}

struct Fixture {
  explicit Fixture(int cpus = 20) : tree(cpus) {}

  std::shared_ptr<SysNamespace> make(cgroup::CgroupId id, Params params = {}) {
    auto ns = std::make_shared<SysNamespace>(id, params);
    ns->refresh_cpu_bounds(tree);
    return ns;
  }

  cgroup::Tree tree;
};

// --- Algorithm 1, lines 4-5: static bounds ---------------------------------

TEST(SysNamespaceBounds, SingleUnconstrainedContainer) {
  Fixture f;
  const auto cg = f.tree.create("a");
  const auto ns = f.make(cg);
  // Only container: share fraction = 1 => lower = upper = 20.
  EXPECT_EQ(ns->cpu_bounds().lower, 20);
  EXPECT_EQ(ns->cpu_bounds().upper, 20);
  EXPECT_EQ(ns->effective_cpus(), 20);
}

TEST(SysNamespaceBounds, ShareFractionSetsLower) {
  Fixture f;
  const auto a = f.tree.create("a");
  for (int i = 0; i < 4; ++i) {
    f.tree.create("other" + std::to_string(i));
  }
  const auto ns = f.make(a);
  // 5 equal shares on 20 CPUs: guaranteed ceil(20/5) = 4; no limit => upper 20.
  EXPECT_EQ(ns->cpu_bounds().lower, 4);
  EXPECT_EQ(ns->cpu_bounds().upper, 20);
  EXPECT_EQ(ns->effective_cpus(), 4);  // starts at LOWER (line 6)
}

TEST(SysNamespaceBounds, QuotaCapsBothBounds) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.set_cfs_quota(a, 1000000);  // 10 CPUs at 100ms period
  const auto ns = f.make(a);
  EXPECT_EQ(ns->cpu_bounds().upper, 10);
  EXPECT_LE(ns->cpu_bounds().lower, 10);
}

TEST(SysNamespaceBounds, CpusetCapsBothBounds) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.set_cpuset(a, CpuSet::first_n(2));
  const auto ns = f.make(a);
  EXPECT_EQ(ns->cpu_bounds().upper, 2);
  EXPECT_EQ(ns->cpu_bounds().lower, 2);  // share term (20) loses the min
}

TEST(SysNamespaceBounds, FractionalQuotaRoundsUpToOne) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.set_cfs_quota(a, 50000);  // half a CPU
  const auto ns = f.make(a);
  EXPECT_EQ(ns->cpu_bounds().lower, 1);
  EXPECT_EQ(ns->cpu_bounds().upper, 1);
}

TEST(SysNamespaceBounds, BoundsNeverBelowOne) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.set_cpu_shares(a, 2);  // negligible share among many
  for (int i = 0; i < 10; ++i) {
    f.tree.create("big" + std::to_string(i));
  }
  const auto ns = f.make(a);
  EXPECT_GE(ns->cpu_bounds().lower, 1);
}

// --- Algorithm 1, lines 8-17: dynamics -------------------------------------

TEST(SysNamespaceCpu, GrowsWhenBusyAndHostHasSlack) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.create("b");  // share fraction 1/2 => lower 10, upper 20
  const auto ns = f.make(a);
  ASSERT_EQ(ns->effective_cpus(), 10);
  ns->update_cpu(busy(10, /*slack=*/true));
  EXPECT_EQ(ns->effective_cpus(), 11);  // +1 per update, not more
  ns->update_cpu(busy(11, true));
  EXPECT_EQ(ns->effective_cpus(), 12);
}

TEST(SysNamespaceCpu, DoesNotGrowWhenUnderutilized) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.create("b");
  const auto ns = f.make(a);
  ns->update_cpu(idle_obs(/*slack=*/true));
  EXPECT_EQ(ns->effective_cpus(), 10);
}

TEST(SysNamespaceCpu, NeverExceedsUpper) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.set_cfs_quota(a, 400000);  // upper 4
  const auto ns = f.make(a);
  for (int i = 0; i < 20; ++i) {
    ns->update_cpu(busy(ns->effective_cpus(), true));
  }
  EXPECT_EQ(ns->effective_cpus(), 4);
}

TEST(SysNamespaceCpu, ShrinksWithoutSlackDownToLower) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.create("b");  // lower 10
  const auto ns = f.make(a);
  for (int i = 0; i < 5; ++i) {
    ns->update_cpu(busy(ns->effective_cpus(), true));
  }
  const int grown = ns->effective_cpus();
  ASSERT_GT(grown, 10);
  for (int i = 0; i < 30; ++i) {
    ns->update_cpu(busy(ns->effective_cpus(), /*slack=*/false));
  }
  EXPECT_EQ(ns->effective_cpus(), 10);  // clamped at LOWER
}

TEST(SysNamespaceCpu, ConfigChangeReclampsCurrentValue) {
  Fixture f;
  const auto a = f.tree.create("a");
  const auto ns = f.make(a);
  ASSERT_EQ(ns->effective_cpus(), 20);
  f.tree.set_cfs_quota(a, 600000);  // upper now 6
  ns->refresh_cpu_bounds(f.tree);
  EXPECT_EQ(ns->effective_cpus(), 6);
}

TEST(SysNamespaceCpu, UpdateCounterAdvances) {
  Fixture f;
  const auto a = f.tree.create("a");
  const auto ns = f.make(a);
  ns->update_cpu(idle_obs(true));
  ns->update_cpu(idle_obs(false));
  EXPECT_EQ(ns->cpu_updates(), 2u);
}

// --- Algorithm 1 invariant sweep --------------------------------------------

// gtest names each instance after a byte dump of its parameter, so the
// padding is spelled out as zeroed fields: left implicit, it would hold stack
// garbage and the test names would change from one build to the next.
struct CpuSweepParam {
  CpuSweepParam(int c, std::int64_t q, int cpus)
      : containers(c), quota_us(q), cpuset_cpus(cpus) {}
  int containers;
  std::int32_t pad0 = 0;
  std::int64_t quota_us;
  int cpuset_cpus;  // 0 = none
  std::int32_t pad1 = 0;
};

class Alg1Sweep : public ::testing::TestWithParam<CpuSweepParam> {};

TEST_P(Alg1Sweep, EffectiveCpuAlwaysWithinBounds) {
  const auto p = GetParam();
  Fixture f;
  const auto a = f.tree.create("a");
  for (int i = 1; i < p.containers; ++i) {
    f.tree.create("c" + std::to_string(i));
  }
  if (p.quota_us != kUnlimited) {
    f.tree.set_cfs_quota(a, p.quota_us);
  }
  if (p.cpuset_cpus > 0) {
    f.tree.set_cpuset(a, CpuSet::first_n(p.cpuset_cpus));
  }
  const auto ns = f.make(a);
  // Alternate slack/no-slack and busy/idle pseudo-randomly; invariants must
  // hold at every step.
  for (int step = 0; step < 200; ++step) {
    const bool slack = (step * 7) % 3 != 0;
    const bool is_busy = (step * 13) % 2 == 0;
    ns->update_cpu(is_busy ? busy(ns->effective_cpus(), slack) : idle_obs(slack));
    ASSERT_GE(ns->effective_cpus(), ns->cpu_bounds().lower);
    ASSERT_LE(ns->effective_cpus(), ns->cpu_bounds().upper);
    ASSERT_GE(ns->effective_cpus(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Alg1Sweep,
    ::testing::Values(CpuSweepParam{1, kUnlimited, 0},
                      CpuSweepParam{5, kUnlimited, 0},
                      CpuSweepParam{10, kUnlimited, 2},
                      CpuSweepParam{2, 400000, 0},
                      CpuSweepParam{4, 1000000, 8},
                      CpuSweepParam{8, 50000, 0},
                      CpuSweepParam{3, 200000, 1}));

// --- Algorithm 2: effective memory -----------------------------------------

struct MemFixture : Fixture {
  MemFixture() : Fixture(20) {
    cg = tree.create("a");
    tree.set_mem_limit(cg, hard);
    tree.set_mem_soft_limit(cg, soft);
    ns = std::make_shared<SysNamespace>(cg, Params{});
    ns->refresh_cpu_bounds(tree);
    ns->refresh_mem_limits(tree, total_ram);
  }

  MemObservation obs(Bytes free, Bytes usage, bool kswapd = false) const {
    MemObservation o;
    o.free = free;
    o.usage = usage;
    o.kswapd_active = kswapd;
    o.low_mark = 1 * GiB;
    o.high_mark = 2 * GiB;
    return o;
  }

  static constexpr Bytes total_ram = 128 * GiB;
  static constexpr Bytes hard = 30 * GiB;
  static constexpr Bytes soft = 15 * GiB;
  cgroup::CgroupId cg;
  std::shared_ptr<SysNamespace> ns;
};

TEST(SysNamespaceMem, InitializesToSoftLimit) {
  MemFixture f;
  EXPECT_EQ(f.ns->effective_memory(), MemFixture::soft);
  EXPECT_EQ(f.ns->mem_hard_limit(), MemFixture::hard);
}

TEST(SysNamespaceMem, GrowsTenPercentOfHeadroomWhenPressured) {
  MemFixture f;
  const Bytes before = f.ns->effective_memory();
  // Using > 90% of effective memory with plenty of free RAM.
  f.ns->update_mem(f.obs(60 * GiB, before - 1 * MiB));
  const Bytes expected_delta = (MemFixture::hard - before) / 10;
  EXPECT_NEAR(static_cast<double>(f.ns->effective_memory() - before),
              static_cast<double>(expected_delta), static_cast<double>(MiB));
}

TEST(SysNamespaceMem, NoGrowthBelowUsageThreshold) {
  MemFixture f;
  const Bytes before = f.ns->effective_memory();
  f.ns->update_mem(f.obs(60 * GiB, before / 2));
  EXPECT_EQ(f.ns->effective_memory(), before);
}

TEST(SysNamespaceMem, NeverExceedsHardLimit) {
  MemFixture f;
  for (int i = 0; i < 200; ++i) {
    f.ns->update_mem(f.obs(100 * GiB, f.ns->effective_memory()));
  }
  EXPECT_LE(f.ns->effective_memory(), MemFixture::hard);
  EXPECT_GT(f.ns->effective_memory(),
            MemFixture::hard - static_cast<Bytes>(1) * GiB);
}

TEST(SysNamespaceMem, ResetsToSoftWhenKswapdActive) {
  MemFixture f;
  f.ns->update_mem(f.obs(60 * GiB, f.ns->effective_memory()));
  ASSERT_GT(f.ns->effective_memory(), MemFixture::soft);
  f.ns->update_mem(f.obs(60 * GiB, 10 * GiB, /*kswapd=*/true));
  EXPECT_EQ(f.ns->effective_memory(), MemFixture::soft);
}

TEST(SysNamespaceMem, ResetsToSoftBelowLowWatermark) {
  MemFixture f;
  f.ns->update_mem(f.obs(60 * GiB, f.ns->effective_memory()));
  ASSERT_GT(f.ns->effective_memory(), MemFixture::soft);
  f.ns->update_mem(f.obs(512 * MiB, 10 * GiB));  // free < low mark
  EXPECT_EQ(f.ns->effective_memory(), MemFixture::soft);
}

TEST(SysNamespaceMem, PredictionGateBlocksGrowthNearHighMark) {
  MemFixture f;
  // Prime the prediction ratio: previous window saw free drop 2 GiB while
  // the container grew 1 GiB => ratio 2.
  f.ns->update_mem(f.obs(10 * GiB, 14 * GiB));
  f.ns->update_mem(f.obs(8 * GiB, 15 * GiB));
  const Bytes e_mem = f.ns->effective_memory();
  // Next window: free is barely above the high mark; a 2:1 predicted drop
  // would cross it, so growth must be blocked.
  f.ns->update_mem(f.obs(3200 * MiB, f.ns->effective_memory()));
  EXPECT_EQ(f.ns->effective_memory(), e_mem);
}

// --- First-window behavior of the line-8 prediction ratio -------------------
//
// Before any window completes there is no (prev_free, prev_usage) snapshot,
// so the prediction ratio must default to 1:1. These tests pin that down for
// the optional-based snapshots: "no previous window" is a distinct state, not
// a magic byte value.

TEST(SysNamespaceMem, FirstWindowPredictsOneToOne) {
  // delta = 10% of (30 - 15) GiB = 1.5 GiB. With ratio 1.0 the gate passes
  // iff free - 1.5 GiB > HIGH_MARK (2 GiB).
  MemFixture grows;
  grows.ns->update_mem(grows.obs(4 * GiB, 14 * GiB + 512 * MiB));
  EXPECT_GT(grows.ns->effective_memory(), MemFixture::soft);

  MemFixture blocked;
  blocked.ns->update_mem(blocked.obs(3 * GiB, 14 * GiB + 512 * MiB));
  EXPECT_EQ(blocked.ns->effective_memory(), MemFixture::soft);
}

TEST(SysNamespaceMem, ZeroUsageFirstWindowStillSeedsSnapshot) {
  MemFixture f;
  // First window: the container has touched nothing yet. Usage 0 is a legal
  // reading and must be recorded as the baseline (the old -1 sentinel made
  // this case easy to get wrong).
  f.ns->update_mem(f.obs(60 * GiB, 0));
  EXPECT_EQ(f.ns->effective_memory(), MemFixture::soft);

  // Second window: usage jumped 14.5 GiB while free fell 55 GiB — a measured
  // ratio of ~3.8:1. The predicted drop (~5.7 GiB) would push free (5 GiB)
  // below HIGH_MARK, so growth is blocked. A unit ratio would have allowed
  // it (5 - 1.5 > 2), so this only passes if the zero-usage snapshot took.
  f.ns->update_mem(f.obs(5 * GiB, 14 * GiB + 512 * MiB));
  EXPECT_EQ(f.ns->effective_memory(), MemFixture::soft);
}

TEST(SysNamespaceMem, ShortageWindowReseedsSnapshot) {
  MemFixture f;
  // A kswapd window resets e_mem and must also re-seed the snapshot so the
  // next ratio measures from the shortage window, not from before it.
  f.ns->update_mem(f.obs(10 * GiB, 5 * GiB, /*kswapd=*/true));
  ASSERT_EQ(f.ns->effective_memory(), MemFixture::soft);
  // Growth +9.5 GiB while free fell 5 GiB => ratio ~0.53, predicted drop
  // ~0.8 GiB; free (5 GiB) - 0.8 GiB > HIGH_MARK, so growth proceeds.
  f.ns->update_mem(f.obs(5 * GiB, 14 * GiB + 512 * MiB));
  EXPECT_GT(f.ns->effective_memory(), MemFixture::soft);
}

TEST(SysNamespaceMem, SoftLimitChangesReclamp) {
  MemFixture f;
  f.tree.set_mem_soft_limit(f.cg, 20 * GiB);
  f.ns->refresh_mem_limits(f.tree, MemFixture::total_ram);
  EXPECT_GE(f.ns->effective_memory(), static_cast<Bytes>(20) * GiB);
}

TEST(SysNamespaceMem, MissingSoftLimitFallsBackToHard) {
  Fixture f;
  const auto cg = f.tree.create("nolimits");
  f.tree.set_mem_limit(cg, 8 * GiB);
  auto ns = std::make_shared<SysNamespace>(cg, Params{});
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  EXPECT_EQ(ns->effective_memory(), static_cast<Bytes>(8) * GiB);
  EXPECT_EQ(ns->mem_soft_limit(), static_cast<Bytes>(8) * GiB);
}

TEST(SysNamespaceMem, UnlimitedContainerSeesHostRam) {
  Fixture f;
  const auto cg = f.tree.create("free");
  auto ns = std::make_shared<SysNamespace>(cg, Params{});
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  EXPECT_EQ(ns->effective_memory(), static_cast<Bytes>(128) * GiB);
}

TEST(SysNamespaceMem, PredictionGateCanBeDisabled) {
  // Same near-the-high-mark situation as PredictionGateBlocksGrowthNearHighMark,
  // but with the gate off growth proceeds regardless (the ablation knob).
  Fixture f;
  const auto cg = f.tree.create("a");
  f.tree.set_mem_limit(cg, 30 * GiB);
  f.tree.set_mem_soft_limit(cg, 15 * GiB);
  Params params;
  params.mem_prediction_gate = false;
  auto ns = std::make_shared<SysNamespace>(cg, params);
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  auto obs = [&](Bytes free, Bytes usage) {
    MemObservation o;
    o.free = free;
    o.usage = usage;
    o.kswapd_active = false;
    o.low_mark = 1 * GiB;
    o.high_mark = 2 * GiB;
    return o;
  };
  ns->update_mem(obs(10 * GiB, 14 * GiB));
  ns->update_mem(obs(8 * GiB, 15 * GiB));
  const Bytes before = ns->effective_memory();
  ns->update_mem(obs(3200 * MiB, ns->effective_memory()));
  EXPECT_GT(ns->effective_memory(), before);  // grew despite the prediction
}

// --- LXCFS-style static-limit views (the "static" policy) --------------------

TEST(StaticLimitsView, ExportsQuotaCpusUnconditionally) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.create("b");  // share fraction would give 10; static view ignores it
  f.tree.set_cfs_quota(a, 1000000);  // 10 CPUs
  Params params;
  params.policy = "static";
  auto ns = std::make_shared<SysNamespace>(a, params);
  ns->refresh_cpu_bounds(f.tree);
  EXPECT_EQ(ns->effective_cpus(), 10);
  // No amount of contention feedback moves it.
  for (int i = 0; i < 50; ++i) {
    ns->update_cpu(busy(ns->effective_cpus(), false));
  }
  EXPECT_EQ(ns->effective_cpus(), 10);
}

TEST(StaticLimitsView, ExportsHardMemoryLimit) {
  Fixture f;
  const auto cg = f.tree.create("a");
  f.tree.set_mem_limit(cg, 4 * GiB);
  f.tree.set_mem_soft_limit(cg, 1 * GiB);
  Params params;
  params.policy = "static";
  auto ns = std::make_shared<SysNamespace>(cg, params);
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  EXPECT_EQ(ns->effective_memory(), static_cast<Bytes>(4) * GiB);
  MemObservation o;
  o.free = 512 * MiB;
  o.usage = 4 * GiB;
  o.kswapd_active = true;  // would reset an adaptive view to soft
  o.low_mark = 1 * GiB;
  o.high_mark = 2 * GiB;
  ns->update_mem(o);
  EXPECT_EQ(ns->effective_memory(), static_cast<Bytes>(4) * GiB);
}

TEST(StaticLimitsView, TracksAdministratorChanges) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.set_cpuset(a, CpuSet::first_n(6));
  Params params;
  params.policy = "static";
  auto ns = std::make_shared<SysNamespace>(a, params);
  ns->refresh_cpu_bounds(f.tree);
  EXPECT_EQ(ns->effective_cpus(), 6);
  f.tree.set_cpuset(a, CpuSet::first_n(2));
  ns->refresh_cpu_bounds(f.tree);
  EXPECT_EQ(ns->effective_cpus(), 2);  // LXCFS does follow `docker update`
}

}  // namespace
}  // namespace arv::core
