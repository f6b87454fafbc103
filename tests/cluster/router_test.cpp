// RequestRouter: join-shortest-queue balancing, retry failover, unroutable
// accounting, and request-stats continuity across a replica migration. Plus
// the FleetScenario builder that wires all of it together.
#include "src/cluster/router.h"

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/scheduler.h"
#include "src/harness/scenario.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host(int cpus, Bytes ram) {
  container::HostConfig config;
  config.cpus = cpus;
  config.ram = ram;
  return config;
}

server::WebConfig replica_web() {
  server::WebConfig web;
  web.service_cpu = 4 * msec;
  return web;
}

TEST(RequestRouter, BalancesAcrossReplicas) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 400;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  const int a = scheduler.place("requests", {"web-a", res(1000, 1 * GiB)},
                                web_replica(replica_web()));
  const int b = scheduler.place("requests", {"web-b", res(1000, 1 * GiB)},
                                web_replica(replica_web()));
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  router.add_replica(a);
  router.add_replica(b);
  cluster.run_for(5 * sec);

  EXPECT_EQ(router.unroutable(), 0u);
  EXPECT_GT(router.routed(), 1900u);  // ~400/s for 5s
  const auto& stats_a = cluster.pod(a).workload->request_sink()->stats();
  const auto& stats_b = cluster.pod(b).workload->request_sink()->stats();
  EXPECT_GT(stats_a.completed, 0u);
  EXPECT_GT(stats_b.completed, 0u);
  // JSQ keeps the split close to even on symmetric replicas.
  const auto hi = std::max(stats_a.arrived, stats_b.arrived);
  const auto lo = std::min(stats_a.arrived, stats_b.arrived);
  EXPECT_LT(hi - lo, hi / 4) << "arrivals skewed: " << stats_a.arrived
                             << " vs " << stats_b.arrived;
  const server::RequestStats total = router.aggregate();
  EXPECT_EQ(total.arrived, stats_a.arrived + stats_b.arrived);
}

TEST(RequestRouter, CountsUnroutableWhenNoReplicaIsUp) {
  Cluster cluster;
  cluster.add_host(small_host(2, 4 * GiB));
  RouterConfig config;
  config.arrivals_per_sec = 100;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  cluster.run_for(1 * sec);
  EXPECT_EQ(router.routed(), 0u);
  EXPECT_GE(router.unroutable(), 99u);
}

TEST(RequestRouter, StatsSurviveReplicaMigration) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 200;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  const int pod = scheduler.place("requests", {"web", res(1000, 1 * GiB)},
                                  web_replica(replica_web()));
  ASSERT_GE(pod, 0);
  router.add_replica(pod);
  cluster.run_for(2 * sec);
  const std::uint64_t before = router.aggregate().completed;
  ASSERT_GT(before, 0u);

  cluster.migrate_pod(pod, cluster.pod(pod).host == 0 ? 1 : 0);
  cluster.run_for(3 * sec);  // freeze passes, replica resumes on the target
  const server::RequestStats after = router.aggregate();
  EXPECT_TRUE(cluster.pod(pod).running());
  EXPECT_GT(after.completed, before)
      << "migrated replica stopped serving, or its history was lost";
  // Requests that arrived during the freeze had no replica to go to.
  EXPECT_GT(router.unroutable(), 0u);
}

// Satellite regression: enrolling the same pod twice used to double its
// arrivals (two JSQ entries over one queue) and double-count its history in
// aggregate(). Duplicates are now rejected.
TEST(RequestRouter, RejectsDuplicateReplica) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 100;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  const int pod = scheduler.place("requests", {"web", res(1000, 1 * GiB)},
                                  web_replica(replica_web()));
  ASSERT_GE(pod, 0);
  EXPECT_TRUE(router.add_replica(pod));
  EXPECT_FALSE(router.add_replica(pod));
  cluster.run_for(1 * sec);
  // One rotation entry: history counted once.
  const auto& live = cluster.pod(pod).workload->request_sink()->stats();
  EXPECT_EQ(router.aggregate().arrived, live.arrived);
}

// Retries move a refused request to the next-best replica instead of
// dropping it. The first replica's accept queue is capped at one, so it
// keeps *looking* shortest to JSQ while actually full; the healthy second
// replica must absorb every refusal.
TEST(RequestRouter, RetryFailsOverToNextBestReplica) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 1500;
  config.max_retries = 1;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  server::WebConfig slow = replica_web();
  slow.service_cpu = 50 * msec;
  slow.max_queue = 1;  // full at depth 1: still the JSQ favourite
  server::WebConfig fast = replica_web();
  fast.service_cpu = 2 * msec;  // ~75% utilised: depth is often >= 1
  const int a = scheduler.place("requests", {"slow", res(2000, 1 * GiB)},
                                web_replica(slow));
  const int b = scheduler.place("requests", {"fast", res(2000, 1 * GiB)},
                                web_replica(fast));
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_TRUE(router.add_replica(a));
  ASSERT_TRUE(router.add_replica(b));
  cluster.run_for(3 * sec);

  EXPECT_GT(router.retries(), 0u);
  EXPECT_EQ(router.dropped(), 0u)
      << "with a healthy second replica every refusal must be retried away";
  EXPECT_EQ(router.generated(),
            router.routed() + router.dropped() + router.unroutable());
}

TEST(FleetScenario, BuildsARunningFleet) {
  cluster::ClusterConfig config;
  config.enable_tracing = true;
  harness::FleetScenario fleet(config);
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.enable_router(300);
  fleet.enable_rebalancer();
  ASSERT_GE(fleet.place_web_pod("effective", res(1000, 1 * GiB),
                                replica_web()),
            0);
  ASSERT_GE(fleet.place_web_pod("effective", res(1000, 1 * GiB),
                                replica_web()),
            0);
  ASSERT_GE(fleet.place_pod("requests", res(500, 512 * MiB),
                            cpu_hog_workload(1, 1 * sec)),
            0);
  fleet.run(3 * sec);

  EXPECT_EQ(fleet.cluster().now(), 3 * sec);
  const server::RequestStats total = fleet.router()->aggregate();
  EXPECT_GT(total.completed, 500u);
  EXPECT_GT(total.latency_us.count(), 0u);
  EXPECT_NE(fleet.cluster().trace(), nullptr);
}

}  // namespace
}  // namespace arv::cluster
