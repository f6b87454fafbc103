#include "src/cgroup/cgroup.h"

#include <gtest/gtest.h>

namespace arv::cgroup {
namespace {

TEST(CgroupTree, RootAlwaysExists) {
  Tree tree(8);
  EXPECT_TRUE(tree.exists(kRootCgroup));
  EXPECT_EQ(tree.get(kRootCgroup).name(), "/");
}

TEST(CgroupTree, CreateAssignsSequentialIds) {
  Tree tree(8);
  const CgroupId a = tree.create("a");
  const CgroupId b = tree.create("b");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(tree.get(a).parent(), kRootCgroup);
}

TEST(CgroupTree, FindByName) {
  Tree tree(8);
  const CgroupId a = tree.create("web");
  EXPECT_EQ(tree.find("web"), a);
  EXPECT_EQ(tree.find("nope"), -1);
}

TEST(CgroupTree, NestedCreation) {
  Tree tree(8);
  const CgroupId parent = tree.create("parent");
  const CgroupId child = tree.create("child", parent);
  EXPECT_EQ(tree.get(child).parent(), parent);
  ASSERT_EQ(tree.get(parent).children().size(), 1u);
  EXPECT_EQ(tree.get(parent).children()[0], child);
}

TEST(CgroupTree, DestroyRemovesAndFreesName) {
  Tree tree(8);
  const CgroupId a = tree.create("a");
  tree.destroy(a);
  EXPECT_FALSE(tree.exists(a));
  EXPECT_EQ(tree.find("a"), -1);
  // Name can be reused afterwards.
  const CgroupId a2 = tree.create("a");
  EXPECT_NE(a2, a);
}

TEST(CgroupTree, DefaultKnobValues) {
  Tree tree(8);
  const CgroupId a = tree.create("a");
  EXPECT_EQ(tree.get(a).cpu().shares, 1024);
  EXPECT_EQ(tree.get(a).cpu().cfs_quota_us, kUnlimited);
  EXPECT_EQ(tree.get(a).cpu().cfs_period_us, 100000);
  EXPECT_TRUE(tree.get(a).cpu().cpuset.empty());
  EXPECT_EQ(tree.get(a).mem().limit_in_bytes, kUnlimited);
  EXPECT_EQ(tree.get(a).mem().soft_limit_in_bytes, kUnlimited);
}

TEST(CgroupTree, SettersApply) {
  Tree tree(8);
  const CgroupId a = tree.create("a");
  tree.set_cpu_shares(a, 512);
  tree.set_cfs_quota(a, 200000);
  tree.set_cfs_period(a, 50000);
  tree.set_cpuset(a, CpuSet::first_n(2));
  tree.set_mem_limit(a, 1 << 30);
  tree.set_mem_soft_limit(a, 1 << 29);
  EXPECT_EQ(tree.get(a).cpu().shares, 512);
  EXPECT_EQ(tree.get(a).cpu().cfs_quota_us, 200000);
  EXPECT_EQ(tree.get(a).cpu().cfs_period_us, 50000);
  EXPECT_EQ(tree.get(a).cpu().cpuset.count(), 2);
  EXPECT_EQ(tree.get(a).mem().limit_in_bytes, 1 << 30);
  EXPECT_EQ(tree.get(a).mem().soft_limit_in_bytes, 1 << 29);
}

TEST(CgroupTree, QuotaCpusComputation) {
  CpuConfig cfg;
  cfg.cfs_period_us = 100000;
  cfg.cfs_quota_us = 400000;
  EXPECT_EQ(cfg.quota_cpus(20), 4);
  cfg.cfs_quota_us = 50000;  // half a CPU rounds up to 1
  EXPECT_EQ(cfg.quota_cpus(20), 1);
  cfg.cfs_quota_us = kUnlimited;
  EXPECT_EQ(cfg.quota_cpus(20), 20);
  cfg.cfs_quota_us = 10000000;  // capped at online
  EXPECT_EQ(cfg.quota_cpus(20), 20);
}

TEST(CgroupTree, EffectiveCpusetIntersectsPath) {
  Tree tree(16);
  const CgroupId parent = tree.create("p");
  const CgroupId child = tree.create("c", parent);
  tree.set_cpuset(parent, *CpuSet::parse("0-7"));
  tree.set_cpuset(child, *CpuSet::parse("4-11"));
  EXPECT_EQ(tree.effective_cpuset(child).to_string(), "4-7");
}

TEST(CgroupTree, EffectiveCpusetDefaultsToAllOnline) {
  Tree tree(6);
  const CgroupId a = tree.create("a");
  EXPECT_EQ(tree.effective_cpuset(a).count(), 6);
}

TEST(CgroupTree, EffectiveQuotaTakesPathMinimum) {
  Tree tree(16);
  const CgroupId parent = tree.create("p");
  const CgroupId child = tree.create("c", parent);
  tree.set_cfs_quota(parent, 400000);  // 4 CPUs
  tree.set_cfs_quota(child, 800000);   // 8 CPUs, parent wins
  EXPECT_EQ(tree.effective_quota_cpus(child), 4);
}

TEST(CgroupTree, EffectiveBandwidthPicksTightestAncestor) {
  Tree tree(16);
  const CgroupId pod = tree.create("pod");
  const CgroupId container = tree.create("c", pod);
  // Unlimited everywhere => unlimited.
  EXPECT_EQ(tree.effective_bandwidth(container).quota_us, kUnlimited);
  // Parent: 2 CPUs; child unlimited => parent's setting binds.
  tree.set_cfs_quota(pod, 200000);
  EXPECT_EQ(tree.effective_bandwidth(container).quota_us, 200000);
  EXPECT_EQ(tree.effective_bandwidth(container).period_us, 100000);
  // Child gets a *tighter* ratio with a different period: child binds.
  tree.set_cfs_period(container, 50000);
  tree.set_cfs_quota(container, 50000);  // 1 CPU
  EXPECT_EQ(tree.effective_bandwidth(container).quota_us, 50000);
  EXPECT_EQ(tree.effective_bandwidth(container).period_us, 50000);
  // Child looser than parent: parent binds again.
  tree.set_cfs_quota(container, 400000);  // 8 CPUs at 50 ms
  EXPECT_EQ(tree.effective_bandwidth(container).quota_us, 200000);
}

TEST(CgroupTree, TotalSharesSumsNonRoot) {
  Tree tree(8);
  tree.create("a");
  const CgroupId b = tree.create("b");
  tree.set_cpu_shares(b, 2048);
  EXPECT_EQ(tree.total_shares(), 1024 + 2048);
}

TEST(CgroupTree, TotalSharesStaysConsistentUnderChurn) {
  Tree tree(8);
  std::vector<CgroupId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(tree.create("c" + std::to_string(i)));
  }
  tree.set_cpu_shares(ids[2], 512);
  tree.set_cpu_shares(ids[5], 4096);
  tree.destroy(ids[3]);
  tree.set_cpu_shares(ids[0], 2);
  tree.set_cpu_shares(kRootCgroup, 4096);  // root never enters the sum
  // The incrementally-maintained total must match a from-scratch sum.
  std::int64_t manual = 0;
  for (const CgroupId id : tree.all_ids()) {
    if (id != kRootCgroup) {
      manual += tree.get(id).cpu().shares;
    }
  }
  EXPECT_EQ(tree.total_shares(), manual);
}

TEST(CgroupTree, EventsFireOnLifecycleAndKnobs) {
  Tree tree(8);
  std::vector<Event> events;
  tree.subscribe([&](const Event& e) { events.push_back(e); });
  const CgroupId a = tree.create("a");
  tree.set_cpu_shares(a, 256);
  tree.set_mem_limit(a, 1 << 30);
  tree.destroy(a);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kCreated);
  EXPECT_EQ(events[1].kind, EventKind::kCpuChanged);
  EXPECT_EQ(events[2].kind, EventKind::kMemChanged);
  EXPECT_EQ(events[3].kind, EventKind::kDestroyed);
  EXPECT_EQ(events[3].id, a);
}

TEST(CgroupTree, GenerationMovesOnEveryEventBeforeListenersRun) {
  Tree tree(8);
  std::vector<std::uint64_t> seen;
  tree.subscribe([&](const Event&) { seen.push_back(tree.generation()); });
  const std::uint64_t start = tree.generation();
  const CgroupId a = tree.create("a");
  tree.set_cpu_shares(a, 256);
  tree.set_cfs_quota(a, 50'000);
  tree.set_cfs_period(a, 50'000);
  tree.set_cpuset(a, CpuSet::first_n(2));
  tree.set_mem_limit(a, 1 << 30);
  tree.set_mem_soft_limit(a, 1 << 29);
  tree.destroy(a);
  ASSERT_EQ(seen.size(), 8u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], start + i + 1);
  }
  EXPECT_EQ(tree.find("missing"), -1);
  EXPECT_EQ(tree.generation(), start + 8);  // lookups leave it alone
}

TEST(CgroupTree, DestroyEventCarriesNameAndPostRemovalState) {
  Tree tree(8);
  std::string seen_name;
  bool still_in_tree = true;
  std::int64_t shares_seen = -1;
  tree.subscribe([&](const Event& e) {
    if (e.kind == EventKind::kDestroyed) {
      seen_name = e.name;
      still_in_tree = tree.exists(e.id);
      shares_seen = tree.total_shares();  // must reflect the removal
    }
  });
  const CgroupId a = tree.create("gone");
  tree.create("stays");
  tree.destroy(a);
  EXPECT_EQ(seen_name, "gone");
  EXPECT_FALSE(still_in_tree);
  EXPECT_EQ(shares_seen, 1024);  // only "stays" remains
}

TEST(CgroupTree, AllIdsSkipsDestroyed) {
  Tree tree(8);
  const CgroupId a = tree.create("a");
  const CgroupId b = tree.create("b");
  tree.destroy(a);
  const auto ids = tree.all_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], b);
}

TEST(CgroupTreeDeath, RejectsInvalidKnobs) {
  Tree tree(8);
  const CgroupId a = tree.create("a");
  EXPECT_DEATH(tree.set_cpu_shares(a, 1), "shares");
  EXPECT_DEATH(tree.set_cfs_period(a, 10), "period");
  EXPECT_DEATH(tree.set_cpuset(a, CpuSet::first_n(9)), "cpuset");
}

TEST(CgroupTreeDeath, DuplicateSiblingNamesRejected) {
  Tree tree(8);
  tree.create("dup");
  EXPECT_DEATH(tree.create("dup"), "unique");
}

TEST(CgroupTreeDeath, DestroyWithChildrenRejected) {
  Tree tree(8);
  const CgroupId parent = tree.create("p");
  tree.create("c", parent);
  EXPECT_DEATH(tree.destroy(parent), "children");
}

}  // namespace
}  // namespace arv::cgroup
