// The Algorithm 1/2 safety invariants, enforced under *every* policy in
// kPolicyNames under randomized bounds changes and observations:
//
//   I1. LOWER <= E_CPU <= UPPER after every refresh and update.
//   I2. soft <= E_MEM <= hard after every refresh and update.
//   I3. kswapd active (or free below LOW_MARK) => the next adaptive decision
//       resets E_MEM to the soft limit ("static" is exempt by contract —
//       LXCFS never reacts to allocation).
//
// Plus the mid-run policy-switch property: invariants hold across a live
// swap to any other policy, in any direction.
#include <gtest/gtest.h>

#include "src/core/policy.h"
#include "src/core/sys_namespace.h"
#include "src/util/rng.h"

namespace arv::core {
namespace {

using namespace arv::units;

constexpr SimDuration kWindow = 24 * msec;
constexpr Bytes kTotalRam = 128 * GiB;

struct RandomDriver {
  explicit RandomDriver(std::uint64_t seed) : rng(seed), tree(20) {}

  std::shared_ptr<SysNamespace> make(const std::string& policy) {
    cg = tree.create("c");
    tree.create("peer");  // share fraction < 1 so lower < upper
    tree.set_mem_limit(cg, 8 * GiB);
    tree.set_mem_soft_limit(cg, 2 * GiB);
    Params params;
    params.policy = policy;
    auto ns = std::make_shared<SysNamespace>(cg, params);
    ns->refresh_cpu_bounds(tree);
    ns->refresh_mem_limits(tree, kTotalRam);
    return ns;
  }

  /// One random mutation + observation round against `ns`, asserting the
  /// bounds invariants after every call that can move the effective values.
  void step(SysNamespace& ns) {
    // Occasionally shuffle the administrator settings mid-run.
    if (rng.chance(0.2)) {
      tree.set_cfs_quota(cg, rng.uniform_int(2, 20) * 100000);
      ns.refresh_cpu_bounds(tree);
      check_cpu(ns);
    }
    if (rng.chance(0.1)) {
      tree.set_mem_limit(cg, rng.uniform_int(3, 16) * GiB);
      ns.refresh_mem_limits(tree, kTotalRam);
      check_mem(ns);
    }

    CpuObservation cpu;
    cpu.window = kWindow;
    cpu.usage = static_cast<CpuTime>(
        rng.uniform(0.0, 1.05) * static_cast<double>(ns.effective_cpus()) *
        static_cast<double>(kWindow));
    cpu.host_has_slack = rng.chance(0.5);
    ns.update_cpu(cpu);
    check_cpu(ns);

    MemObservation mem;
    mem.low_mark = 1 * GiB;
    mem.high_mark = 2 * GiB;
    mem.free = rng.uniform_int(0, 64) * GiB;
    mem.usage = rng.uniform_int(0, 8) * GiB;
    mem.kswapd_active = rng.chance(0.15);
    const bool shortage = mem.free <= mem.low_mark || mem.kswapd_active;
    ns.update_mem(mem);
    check_mem(ns);
    if (shortage && adaptive) {
      // I3: every adaptive policy must fall back to the reclaim target.
      EXPECT_EQ(ns.effective_memory(), ns.mem_soft_limit());
    }
  }

  void check_cpu(const SysNamespace& ns) {
    EXPECT_GE(ns.effective_cpus(), ns.cpu_bounds().lower);
    EXPECT_LE(ns.effective_cpus(), ns.cpu_bounds().upper);
  }

  void check_mem(const SysNamespace& ns) {
    EXPECT_GE(ns.effective_memory(), ns.mem_soft_limit());
    EXPECT_LE(ns.effective_memory(), ns.mem_hard_limit());
  }

  Rng rng;
  cgroup::Tree tree;
  cgroup::CgroupId cg{};
  bool adaptive = true;
};

TEST(PolicyInvariants, HoldForEveryRegisteredPolicyUnderRandomInputs) {
  for (const std::string_view policy : kPolicyNames) {
    SCOPED_TRACE(policy);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      RandomDriver driver(seed * 7919);
      const auto ns = driver.make(std::string(policy));
      driver.adaptive = policy != "static";
      for (int round = 0; round < 400; ++round) {
        driver.step(*ns);
      }
      // Liveness spot checks on top of safety: the decision counters account
      // for every round, and an adaptive policy that saw both slack and
      // pressure did *something* other than hold forever.
      EXPECT_EQ(ns->cpu_decisions().total(), ns->cpu_updates());
      EXPECT_EQ(ns->mem_decisions().total(), ns->mem_updates());
      if (driver.adaptive) {
        EXPECT_GT(ns->mem_decisions().reset, 0u);
      }
    }
  }
}

TEST(PolicyInvariants, HoldAcrossMidRunPolicySwitches) {
  const auto& policies = kPolicyNames;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomDriver driver(seed * 104729);
    const auto ns = driver.make("paper");
    for (int round = 0; round < 600; ++round) {
      if (round % 50 == 25) {
        // Swap to a random policy.
        const auto& policy = policies[static_cast<std::size_t>(
            driver.rng.uniform_int(0, static_cast<std::int64_t>(policies.size()) - 1))];
        ASSERT_TRUE(ns->set_policy(std::string(policy)));
        // The swap itself must land inside the bounds (e.g. "static" pins to
        // upper/hard immediately; adaptive resumes from the current value).
        driver.check_cpu(*ns);
        driver.check_mem(*ns);
        driver.adaptive = policy != "static";
      }
      driver.step(*ns);
    }
  }
}

}  // namespace
}  // namespace arv::core
