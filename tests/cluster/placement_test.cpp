// Placement strategies: name parsing, requests-based packing,
// QoS-ordered batch placement, and the effective strategy's preference for
// observed headroom over declared bookkeeping.
#include "src/cluster/placement.h"

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet_view.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/scheduler.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

PodSpec spec(std::int64_t millicpu, Bytes memory) {
  PodSpec s;
  s.resources = res(millicpu, memory);
  return s;
}

container::HostConfig small_host(int cpus, Bytes ram) {
  container::HostConfig config;
  config.cpus = cpus;
  config.ram = ram;
  return config;
}

TEST(PlacementLookup, BuiltinsRegistered) {
  EXPECT_EQ(parse_strategy("requests"), Strategy::kRequests);
  EXPECT_EQ(parse_strategy("effective"), Strategy::kEffective);
  EXPECT_EQ(parse_strategy("profile"), Strategy::kProfile);
  EXPECT_EQ(parse_strategy("nope"), std::nullopt);
  EXPECT_EQ(parse_strategy(""), std::nullopt);
  EXPECT_EQ(parse_strategy("Effective"), std::nullopt);
}

TEST(PickBest, SkipsInfeasibleAndIsDeterministic) {
  Rng rng_a(7);
  Rng rng_b(7);
  const std::vector<std::int64_t> scores = {-1, 50, 900, 900, -1};
  const int a = pick_best(scores, rng_a);
  const int b = pick_best(scores, rng_b);
  EXPECT_EQ(a, b);           // same seed, same tie-break
  EXPECT_TRUE(a == 2 || a == 3);  // one of the tied maxima
  Rng rng_c(1);
  EXPECT_EQ(pick_best({-1, -1}, rng_c), -1);
  EXPECT_EQ(pick_best({}, rng_c), -1);
}

TEST(RequestsStrategy, PacksOntoTheFullerHost) {
  Cluster cluster;
  cluster.add_host(small_host(8, 16 * GiB));
  cluster.add_host(small_host(8, 16 * GiB));
  ClusterScheduler scheduler(cluster);
  // Seed host 0 with load so MostAllocated scoring prefers it.
  const int first = scheduler.place("requests", spec(2000, 2 * GiB));
  ASSERT_GE(first, 0);
  const int seeded_host = cluster.pod(first).host;
  const int second = scheduler.place("requests", spec(1000, 1 * GiB));
  ASSERT_GE(second, 0);
  EXPECT_EQ(cluster.pod(second).host, seeded_host);
}

TEST(RequestsStrategy, RefusesOverCapacityAndCountsUnschedulable) {
  Cluster cluster;
  cluster.add_host(small_host(2, 4 * GiB));
  ClusterScheduler scheduler(cluster);
  ASSERT_GE(scheduler.place("requests", spec(1500, 1 * GiB)), 0);
  // 1500m + 1000m > 2000m capacity: nothing fits.
  EXPECT_EQ(scheduler.place("requests", spec(1000, 1 * GiB)), -1);
  EXPECT_EQ(scheduler.unschedulable(), 1u);
  // Memory axis is enforced independently of CPU.
  EXPECT_EQ(scheduler.place("requests", spec(100, 8 * GiB)), -1);
  EXPECT_EQ(scheduler.unschedulable(), 2u);
}

TEST(RequestsStrategy, BatchPlacesBestEffortLast) {
  // One host with room for one 800m pod. A BestEffort-adjacent burstable pod
  // is submitted FIRST, a Guaranteed pod second; QoS-ordered placement must
  // give the Guaranteed pod the slot anyway.
  Cluster cluster;
  cluster.add_host(small_host(1, 4 * GiB));
  ClusterScheduler scheduler(cluster);

  PodSpec burstable = spec(800, 512 * MiB);  // requests only => Burstable
  PodSpec guaranteed;
  guaranteed.resources.request_millicpu = 800;
  guaranteed.resources.limit_millicpu = 800;
  guaranteed.resources.request_memory = 512 * MiB;
  guaranteed.resources.limit_memory = 512 * MiB;

  const auto placed =
      scheduler.place_all("requests", {burstable, guaranteed});
  ASSERT_EQ(placed.size(), 2u);
  EXPECT_EQ(placed[0], -1) << "burstable pod should lose the only slot";
  ASSERT_GE(placed[1], 0) << "guaranteed pod must place first";
  EXPECT_EQ(cluster.pod(placed[1]).host, 0);
}

TEST(RequestsStrategy, QueueRanksFollowQosClasses) {
  // Pod ids are handed out in placement order, so they reveal the queue:
  // submitted BestEffort-first, the batch still places Guaranteed, then
  // Burstable, then BestEffort. Other strategies keep submission order.
  PodSpec guaranteed;
  guaranteed.resources.limit_millicpu = 1000;
  guaranteed.resources.limit_memory = 1 * GiB;
  PodSpec burstable = spec(500, 1 * GiB);
  PodSpec best_effort;  // no requests, no limits
  for (const char* name : {"requests", "effective"}) {
    SCOPED_TRACE(name);
    Cluster cluster;
    cluster.add_host(small_host(8, 16 * GiB));
    ClusterScheduler scheduler(cluster);
    const auto placed =
        scheduler.place_all(name, {best_effort, burstable, guaranteed});
    ASSERT_EQ(placed.size(), 3u);
    if (std::string(name) == "requests") {
      EXPECT_EQ(placed, (std::vector<int>{2, 1, 0}));
    } else {
      EXPECT_EQ(placed, (std::vector<int>{0, 1, 2}));
    }
  }
}

TEST(EffectiveStrategy, PrefersObservedIdleOverDeclaredRoom) {
  // Host 0 carries a pod with a *tiny* declared request but a hog that
  // saturates every CPU; host 1 is genuinely idle. The declared ledger says
  // host 0 is nearly empty, the observed slack says it is full.
  Cluster cluster;
  const int busy = cluster.add_host(small_host(4, 8 * GiB));
  const int idle = cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  ASSERT_GE(scheduler.place("requests", spec(100, 128 * MiB),
                            cpu_hog_workload(8, 10000 * sec)),
            0);
  ASSERT_EQ(cluster.pod(0).host, busy);  // MostAllocated picks the seeded host
  cluster.run_for(500 * msec);  // let the observation window see the hog

  const int placed = scheduler.place("effective", spec(100, 128 * MiB));
  ASSERT_GE(placed, 0);
  EXPECT_EQ(cluster.pod(placed).host, idle);
}

TEST(EffectiveStrategy, UnschedulableWhenEveryHostIsSaturated) {
  Cluster cluster;
  cluster.add_host(small_host(2, 4 * GiB));
  ClusterScheduler scheduler(cluster);
  ASSERT_GE(scheduler.place("requests", spec(100, 128 * MiB),
                            cpu_hog_workload(4, 10000 * sec)),
            0);
  cluster.run_for(500 * msec);
  EXPECT_EQ(scheduler.place("effective", spec(100, 128 * MiB)), -1);
  EXPECT_EQ(scheduler.unschedulable(), 1u);
}

TEST(EffectiveStrategy, AcceptsOnOvercommittedButIdleHost) {
  // The converse of the semantic gap: requests sum beyond capacity, actual
  // usage zero. "requests" refuses, "effective" keeps placing.
  Cluster cluster;
  cluster.add_host(small_host(2, 4 * GiB));
  ClusterScheduler scheduler(cluster);
  ASSERT_GE(scheduler.place("requests", spec(1800, 1 * GiB)), 0);  // no workload
  cluster.run_for(500 * msec);
  EXPECT_EQ(scheduler.place("requests", spec(1000, 1 * GiB)), -1);
  EXPECT_GE(scheduler.place("effective", spec(1000, 1 * GiB)), 0);
}

// --- frac_permille at storage-class magnitudes -------------------------------
// Regression: the old implementation computed part * 1000 / whole in int64,
// which wraps once part exceeds ~9.2 PB (int64_max / 1000) — exactly the
// byte scale of free_memory / capacity_memory on large-storage hosts, where
// the garbage ratio silently corrupted every memory-headroom score.

constexpr Bytes TiB = 1024 * GiB;
constexpr Bytes PiB = 1024 * TiB;
constexpr Bytes EiB = 1024 * PiB;

TEST(FracPermille, SurvivesPetabyteMagnitudes) {
  // part * 1000 overflows int64 for every case below; the ratios must still
  // be exact.
  EXPECT_EQ(frac_permille(512 * PiB, 1024 * PiB), 500);
  EXPECT_EQ(frac_permille(1 * EiB, 2 * EiB), 500);
  EXPECT_EQ(frac_permille(3 * EiB, 4 * EiB), 750);
  EXPECT_EQ(frac_permille(7 * PiB, 8 * PiB), 875);
  EXPECT_EQ(frac_permille(10 * PiB, 1 * EiB), 9);
}

TEST(FracPermille, ClampsDegenerateInputs) {
  EXPECT_EQ(frac_permille(0, 100), 0);
  EXPECT_EQ(frac_permille(-5, 100), 0);
  EXPECT_EQ(frac_permille(100, 0), 0);
  EXPECT_EQ(frac_permille(100, -1), 0);
  EXPECT_EQ(frac_permille(200, 100), 1000);
  EXPECT_EQ(frac_permille(100, 100), 1000);
  EXPECT_EQ(frac_permille(7, 9), 777);  // truncation, not rounding
}

TEST(EffectiveStrategy, ScoresCorrectlyAtPetabyteCapacities) {
  // Two hand-built views whose *memory* headrooms decide the winner, at a
  // capacity where the old math overflowed. h1 has more free bytes but a
  // tighter CPU bottleneck; h0 must win on min(cpu, mem) headroom.
  HostView h0;
  h0.index = 0;
  h0.capacity_millicpu = 64000;
  h0.capacity_memory = 1 * EiB;
  h0.slack_millicpu = 32000;      // 500 permille
  h0.free_memory = 768 * PiB;     // ~750 permille -> score 500
  HostView h1 = h0;
  h1.index = 1;
  h1.slack_millicpu = 16000;      // 250 permille
  h1.free_memory = 896 * PiB;     // ~875 permille -> score 250
  Rng rng(1);
  const PodSpec pod = spec(1000, 1 * GiB);
  const FleetView fleet = FleetView::from_hosts({h0, h1});
  EXPECT_EQ(select_host(Strategy::kEffective, pod, fleet, rng), 0);
}

}  // namespace
}  // namespace arv::cluster
