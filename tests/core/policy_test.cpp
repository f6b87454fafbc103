// Unit tests for the adaptation policy: the policy names a SysNamespace
// accepts, the decision-reason bookkeeping, and the behavioural contracts of
// the "paper" and "static" policies as seen through SysNamespace.
#include "src/core/policy.h"

#include <gtest/gtest.h>

#include "src/core/sys_namespace.h"

namespace arv::core {
namespace {

using namespace arv::units;

constexpr SimDuration kWindow = 24 * msec;

CpuObservation cpu_obs(double utilization, int e_cpu, bool slack) {
  CpuObservation obs;
  obs.window = kWindow;
  obs.usage = static_cast<CpuTime>(utilization * static_cast<double>(e_cpu) *
                                   static_cast<double>(kWindow));
  obs.host_has_slack = slack;
  return obs;
}

MemObservation calm_mem(Bytes free, Bytes usage) {
  MemObservation obs;
  obs.free = free;
  obs.usage = usage;
  obs.kswapd_active = false;
  obs.low_mark = 1 * GiB;
  obs.high_mark = 2 * GiB;
  return obs;
}

MemObservation pressured_mem() {
  MemObservation obs;
  obs.free = 512 * MiB;
  obs.usage = 4 * GiB;
  obs.kswapd_active = true;
  obs.low_mark = 1 * GiB;
  obs.high_mark = 2 * GiB;
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

// --- the policy names ------------------------------------------------------

TEST(PolicyFactory, BuiltinsAreRegistered) {
  ASSERT_EQ(kPolicyNames.size(), 2u);
  EXPECT_EQ(kPolicyNames[0], "paper");
  EXPECT_EQ(kPolicyNames[1], "static");
  Fixture f;
  const auto a = f.tree.create("a");
  for (const std::string_view name : kPolicyNames) {
    Params params;
    params.policy = std::string(name);
    EXPECT_EQ(f.make(a, params)->policy_name(), name);
  }
}

TEST(PolicyFactory, UnknownNamesAreRejected) {
  Fixture f;
  const auto a = f.tree.create("a");
  const auto ns = f.make(a);
  for (const char* name : {"bogus", "ewma", "proportional", "", "Paper"}) {
    EXPECT_FALSE(ns->set_policy(name)) << name;
    Params params;
    params.policy = name;
    EXPECT_FALSE(ns->set_params(params)) << name;
  }
  EXPECT_EQ(ns->policy_name(), "paper");
}

TEST(PolicyFactory, InstancesReportTheirName) {
  Fixture f;
  const auto a = f.tree.create("a");
  const auto ns = f.make(a);
  for (const std::string_view name : kPolicyNames) {
    ASSERT_TRUE(ns->set_policy(std::string(name)));
    EXPECT_EQ(ns->policy_name(), name);
    EXPECT_EQ(ns->params().policy, name);
  }
}

TEST(PolicyFactory, OnlyStaticIsNonAdaptive) {
  // The same saturated-with-slack and kswapd-active rounds move a "paper"
  // view on both axes and leave a "static" view where it was pinned.
  for (const std::string_view name : kPolicyNames) {
    SCOPED_TRACE(name);
    Fixture f;
    const auto cg = f.tree.create("a");
    f.tree.create("b");  // lower 10, upper 20
    f.tree.set_mem_limit(cg, 4 * GiB);
    f.tree.set_mem_soft_limit(cg, 1 * GiB);
    Params params;
    params.policy = std::string(name);
    const auto ns = f.make(cg, params);
    ns->refresh_mem_limits(f.tree, 128 * GiB);
    ns->update_mem(calm_mem(60 * GiB, 4 * GiB));
    const int e_cpu = ns->effective_cpus();
    const Bytes e_mem = ns->effective_memory();
    ns->update_cpu(cpu_obs(0.99, e_cpu, true));
    ns->update_mem(pressured_mem());
    const bool moved =
        ns->effective_cpus() != e_cpu || ns->effective_memory() != e_mem;
    EXPECT_EQ(moved, name != "static");
  }
}

// --- decision bookkeeping ---------------------------------------------------

TEST(Decisions, NamesAreStable) {
  EXPECT_STREQ(decision_name(Decision::kHeld), "held");
  EXPECT_STREQ(decision_name(Decision::kGrew), "grew");
  EXPECT_STREQ(decision_name(Decision::kShrank), "shrank");
  EXPECT_STREQ(decision_name(Decision::kClamped), "clamped");
  EXPECT_STREQ(decision_name(Decision::kReset), "reset");
}

TEST(Decisions, CountersTallyPerReason) {
  DecisionCounters counters;
  counters.count(Decision::kGrew);
  counters.count(Decision::kGrew);
  counters.count(Decision::kReset);
  EXPECT_EQ(counters.grew, 2u);
  EXPECT_EQ(counters.reset, 1u);
  EXPECT_EQ(counters.total(), 3u);
}

TEST(Decisions, EveryUpdateRoundIsCounted) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.create("b");  // lower 10, upper 20
  const auto ns = f.make(a);
  for (int i = 0; i < 7; ++i) {
    ns->update_cpu(cpu_obs(0.99, ns->effective_cpus(), true));
  }
  EXPECT_EQ(ns->cpu_decisions().total(), ns->cpu_updates());
  EXPECT_EQ(ns->cpu_decisions().grew, 7u);  // 10 -> 17, all real growth
}

TEST(Decisions, GrowthAgainstTheUpperBoundCountsAsClamped) {
  Fixture f;
  const auto a = f.tree.create("a");
  const auto ns = f.make(a);  // single container: lower = upper = 20
  ASSERT_EQ(ns->effective_cpus(), 20);
  ns->update_cpu(cpu_obs(0.99, 20, true));  // wants 21, bounds say 20
  EXPECT_EQ(ns->effective_cpus(), 20);
  EXPECT_EQ(ns->cpu_decisions().clamped, 1u);
  EXPECT_EQ(ns->cpu_decisions().grew, 0u);
}

TEST(Decisions, KswapdResetIsCounted) {
  Fixture f;
  const auto cg = f.tree.create("a");
  f.tree.set_mem_limit(cg, 4 * GiB);
  f.tree.set_mem_soft_limit(cg, 1 * GiB);
  const auto ns = f.make(cg);
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  ns->update_mem(pressured_mem());
  EXPECT_EQ(ns->effective_memory(), static_cast<Bytes>(1) * GiB);
  EXPECT_EQ(ns->mem_decisions().reset, 1u);
}

// --- runtime policy switching ----------------------------------------------

TEST(PolicySwitch, SwitchToStaticRepinsImmediately) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.create("b");  // lower 10, upper 20
  const auto ns = f.make(a);
  ASSERT_EQ(ns->effective_cpus(), 10);  // paper: starts at LOWER
  ASSERT_TRUE(ns->set_policy("static"));
  EXPECT_EQ(ns->policy_name(), "static");
  // Not lazily at the next cgroup event — right now.
  EXPECT_EQ(ns->effective_cpus(), 20);
}

TEST(PolicySwitch, SwitchBackToPaperKeepsValueAndAdapts) {
  Fixture f;
  const auto a = f.tree.create("a");
  f.tree.create("b");
  const auto ns = f.make(a);
  ASSERT_TRUE(ns->set_policy("static"));
  ASSERT_EQ(ns->effective_cpus(), 20);
  ASSERT_TRUE(ns->set_policy("paper"));
  // The adaptive state resumes from the current value, inside bounds...
  EXPECT_EQ(ns->effective_cpus(), 20);
  // ...and reacts to contention again.
  ns->update_cpu(cpu_obs(0.99, 20, false));
  EXPECT_EQ(ns->effective_cpus(), 19);
}

TEST(PolicySwitch, UnknownPolicyIsRejectedWithoutSideEffects) {
  Fixture f;
  const auto a = f.tree.create("a");
  const auto ns = f.make(a);
  EXPECT_FALSE(ns->set_policy("bogus"));
  EXPECT_FALSE(ns->set_policy(""));
  EXPECT_EQ(ns->policy_name(), "paper");
}

TEST(PolicySwitch, SetParamsRejectsInvalidKnobs) {
  Fixture f;
  const auto a = f.tree.create("a");
  const auto ns = f.make(a);
  Params bad;
  bad.cpu_step = 0;
  EXPECT_FALSE(ns->set_params(bad));
  bad = Params{};
  bad.cpu_util_threshold = 1.5;
  EXPECT_FALSE(ns->set_params(bad));
  bad = Params{};
  bad.mem_growth_frac = 0.0;
  EXPECT_FALSE(ns->set_params(bad));
  bad = Params{};
  bad.policy = "bogus";
  EXPECT_FALSE(ns->set_params(bad));
  EXPECT_EQ(ns->params().cpu_step, 1);  // unchanged throughout

  Params good;
  good.cpu_step = 3;
  EXPECT_TRUE(ns->set_params(good));
  EXPECT_EQ(ns->params().cpu_step, 3);
}

// --- the "static" comparator ------------------------------------------------

TEST(StaticPolicy, PinsMemoryToHardLimitAfterRuntimeLimitUpdate) {
  // The satellite regression: LXCFS follows `docker update`, so a runtime
  // memory.limit_in_bytes change must re-pin e_mem to the *new* hard limit,
  // not leave the value from construction.
  Fixture f;
  const auto cg = f.tree.create("a");
  f.tree.set_mem_limit(cg, 4 * GiB);
  f.tree.set_mem_soft_limit(cg, 1 * GiB);
  Params params;
  params.policy = "static";
  const auto ns = f.make(cg, params);
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  ASSERT_EQ(ns->effective_memory(), static_cast<Bytes>(4) * GiB);
  // Mid-run administrator change, both directions.
  f.tree.set_mem_limit(cg, 8 * GiB);
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  EXPECT_EQ(ns->effective_memory(), static_cast<Bytes>(8) * GiB);
  f.tree.set_mem_limit(cg, 2 * GiB);
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  EXPECT_EQ(ns->effective_memory(), static_cast<Bytes>(2) * GiB);
}

TEST(StaticPolicy, UpdatesNeverMoveTheView) {
  Fixture f;
  const auto cg = f.tree.create("a");
  f.tree.set_mem_limit(cg, 4 * GiB);
  f.tree.set_mem_soft_limit(cg, 1 * GiB);
  Params params;
  params.policy = "static";
  const auto ns = f.make(cg, params);
  ns->refresh_mem_limits(f.tree, 128 * GiB);
  for (int i = 0; i < 20; ++i) {
    ns->update_cpu(cpu_obs(0.99, ns->effective_cpus(), i % 2 == 0));
    ns->update_mem(i % 2 == 0 ? pressured_mem()
                              : calm_mem(60 * GiB, 4 * GiB));
  }
  EXPECT_EQ(ns->effective_cpus(), 20);
  EXPECT_EQ(ns->effective_memory(), static_cast<Bytes>(4) * GiB);
  EXPECT_EQ(ns->cpu_decisions().held, 20u);
  EXPECT_EQ(ns->mem_decisions().held, 20u);
}

}  // namespace
}  // namespace arv::core
