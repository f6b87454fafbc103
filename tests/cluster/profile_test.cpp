// ProfileStore + profile-driven consumers (`ctest -L profile`): integer
// percentiles and burstiness over the sliding window, service correlation
// from shared arrival streams, pruning and baseline-reset semantics, the
// "profile" placement strategy's anti-colocation, the rebalancer's profiled
// victim selection, and the bounded usage-baseline tracking the fallback
// path relies on.
#include "src/cluster/profile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet_view.h"
#include "src/cluster/placement.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/rebalancer.h"
#include "src/cluster/router.h"
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

container::HostConfig small_host(int cpus = 4, Bytes ram = 8 * GiB) {
  container::HostConfig config;
  config.cpus = cpus;
  config.ram = ram;
  return config;
}

ProfileConfig fast_profiles() {
  ProfileConfig config;
  config.period = 50 * msec;
  config.window_rounds = 16;
  config.min_samples = 4;
  return config;
}

// --- percentiles and burstiness ---------------------------------------------

TEST(ProfileStore, SteadyHogProfilesFlat) {
  Cluster cluster;
  cluster.add_host(small_host());
  const int pod = cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                                     cpu_hog_workload(2, 1000 * sec));
  ProfileStore profiles(cluster, fast_profiles());
  cluster.add_component(&profiles);
  cluster.run_for(2 * sec);

  const PodProfile p = profiles.profile(pod);
  ASSERT_GT(p.samples, 0) << "window never filled to min_samples";
  // Two always-runnable threads on four idle CPUs burn ~2 CPUs per round.
  EXPECT_GT(p.cpu_p50_millicpu, 1500);
  EXPECT_LE(p.cpu_p95_millicpu, 2500);
  EXPECT_GE(p.cpu_p95_millicpu, p.cpu_p50_millicpu);
  // A pure CPU hog commits no memory; the percentiles just stay ordered.
  EXPECT_GE(p.mem_p95, p.mem_p50);
  // A steady burner is flat: p95/p50 stays at (or just above) parity.
  EXPECT_LT(p.burst_permille, 1300);
  EXPECT_GE(p.burst_permille, 1000);
}

TEST(ProfileStore, OnOffLoadReadsAsBursty) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.enable_router(0.0);
  fleet.enable_profiles(fast_profiles());
  server::WebConfig web;
  web.service_cpu = 8 * msec;
  const int pod = fleet.place_web_pod("effective", res(1000, 1 * GiB), web);
  ASSERT_GE(pod, 0);
  // Square-wave demand: bursts of traffic separated by silence, so the
  // window holds both busy and idle rounds.
  for (int cycle = 0; cycle < 4; ++cycle) {
    fleet.router()->set_rate(200.0);
    fleet.run(200 * msec);
    fleet.router()->set_rate(0.0);
    fleet.run(200 * msec);
  }
  const PodProfile p = fleet.profiles()->profile(pod);
  ASSERT_GT(p.samples, 0);
  EXPECT_GT(p.cpu_p95_millicpu, p.cpu_p50_millicpu);
  EXPECT_GT(p.burst_permille, 1500) << "square wave must profile as spiky";
}

// --- correlation ------------------------------------------------------------

TEST(ProfileStore, SharedArrivalStreamCorrelatesServices) {
  // Two services behind one router share its on/off arrival stream, so their
  // round-usage series rise and fall together; a steady hog service stays
  // flat and correlates with nothing.
  //
  // The web runtime's listener thread is always schedulable, so an idle web
  // pod burns a constant ~1000m floor; usage only co-varies when bursts push
  // queue depth past one worker. 20ms of service per request at 200/s split
  // over two replicas does that, and the longer off-phase drains the queues
  // so the floor is actually revisited.
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.enable_router(0.0);
  fleet.enable_profiles(fast_profiles());
  server::WebConfig web;
  web.service_cpu = 20 * msec;
  PodSpec a;
  a.name = "a-0";
  a.service = "svc-a";
  a.resources = res(500, 512 * MiB);
  const int pod_a = fleet.scheduler().place("effective", a, web_replica(web));
  ASSERT_GE(pod_a, 0);
  fleet.router()->add_replica(pod_a);
  PodSpec b;
  b.name = "b-0";
  b.service = "svc-b";
  b.resources = res(500, 512 * MiB);
  const int pod_b = fleet.scheduler().place("effective", b, web_replica(web));
  ASSERT_GE(pod_b, 0);
  fleet.router()->add_replica(pod_b);
  PodSpec c;
  c.name = "c-0";
  c.service = "svc-c";
  c.resources = res(500, 512 * MiB);
  const int pod_c =
      fleet.scheduler().place("effective", c, cpu_hog_workload(1, 1000 * sec));
  ASSERT_GE(pod_c, 0);

  for (int cycle = 0; cycle < 4; ++cycle) {
    fleet.router()->set_rate(200.0);
    fleet.run(200 * msec);
    fleet.router()->set_rate(0.0);
    fleet.run(300 * msec);
  }
  const ProfileStore& profiles = *fleet.profiles();
  EXPECT_GT(profiles.service_correlation_permille("svc-a", "svc-b"), 300);
  EXPECT_EQ(profiles.service_correlation_permille("svc-a", "svc-c"), 0)
      << "a flat series co-varies with nothing";
  EXPECT_EQ(profiles.service_correlation_permille("svc-a", "nope"), 0);
}

// --- lifecycle: pruning and relocation ---------------------------------------

TEST(ProfileStore, StoppedPodsArePruned) {
  Cluster cluster;
  cluster.add_host(small_host());
  const int a = cluster.create_pod(0, {"a", res(200, 256 * MiB)},
                                   cpu_hog_workload(1, 1000 * sec));
  const int b = cluster.create_pod(0, {"b", res(200, 256 * MiB)},
                                   cpu_hog_workload(1, 1000 * sec));
  ProfileStore profiles(cluster, fast_profiles());
  cluster.add_component(&profiles);
  cluster.run_for(1 * sec);
  EXPECT_EQ(profiles.tracked_pods(), 2);
  EXPECT_GT(profiles.profile(a).samples, 0);
  cluster.stop_pod(a);
  cluster.run_for(200 * msec);
  EXPECT_EQ(profiles.tracked_pods(), 1);
  EXPECT_EQ(profiles.profile(a).samples, 0);
  EXPECT_GT(profiles.profile(b).samples, 0);
}

TEST(ProfileStore, MigrationResetsTheBaselineNotTheWindow) {
  Cluster cluster;
  cluster.add_host(small_host());
  cluster.add_host(small_host());
  const int pod = cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                                     cpu_hog_workload(2, 1000 * sec));
  ProfileStore profiles(cluster, fast_profiles());
  cluster.add_component(&profiles);
  cluster.run_for(1 * sec);
  const int before = profiles.profile(pod).samples;
  ASSERT_GT(before, 0);

  cluster.migrate_pod(pod, 1);
  cluster.run_for(200 * msec);
  const PodProfile after = profiles.profile(pod);
  // The window survived the move (no restart from zero samples), and the
  // baseline reset on landing: the relocation itself must not read as a
  // burst beyond what two runnable threads can actually burn.
  EXPECT_GT(after.samples, 0);
  EXPECT_LE(after.cpu_p95_millicpu, 2500);
}

// --- the "profile" placement strategy ----------------------------------------

TEST(ProfileStrategy, RegisteredAndNamed) {
  EXPECT_EQ(parse_strategy("profile"), Strategy::kProfile);
}

TEST(ProfileStrategy, SpreadsReplicasOfOneService) {
  // Two identical hosts: the same-service penalty must push the second
  // replica of "web" onto the other machine even though the first host
  // still has plenty of raw headroom.
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.enable_profiles(fast_profiles());
  fleet.use_placement("profile");
  PodSpec first;
  first.name = "web-0";
  first.service = "web";
  first.resources = res(500, 512 * MiB);
  const int a = fleet.scheduler().place("profile", first);
  ASSERT_GE(a, 0);
  fleet.run(100 * msec);
  PodSpec second;
  second.name = "web-1";
  second.service = "web";
  second.resources = res(500, 512 * MiB);
  const int b = fleet.scheduler().place("profile", second);
  ASSERT_GE(b, 0);
  EXPECT_NE(fleet.cluster().pod(a).host, fleet.cluster().pod(b).host);
}

TEST(ProfileStrategy, AvoidsTheHostOfACorrelatedService) {
  // svc-a (host 0) and svc-b (host 2) burst together — one shared router
  // stream; svc-c (host 1) is a steady, uncorrelated hog. A new svc-b
  // replica sees three penalties: corr(a,b) on host 0, zero on host 1, the
  // same-service 1000 on host 2 — so the *correlation alone* must push it
  // onto host 1, even though the hog leaves host 1 with the least raw slack.
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.enable_router(0.0);
  fleet.enable_profiles(fast_profiles());
  server::WebConfig web;
  web.service_cpu = 20 * msec;  // bursts must clear the 1000m listener floor
  PodSpec a;
  a.name = "a-0";
  a.service = "svc-a";
  a.resources = res(500, 512 * MiB);
  const int pod_a = fleet.cluster().create_pod(0, a, web_replica(web));
  fleet.router()->add_replica(pod_a);
  PodSpec b;
  b.name = "b-0";
  b.service = "svc-b";
  b.resources = res(500, 512 * MiB);
  const int pod_b = fleet.cluster().create_pod(2, b, web_replica(web));
  fleet.router()->add_replica(pod_b);
  PodSpec c;
  c.name = "c-0";
  c.service = "svc-c";
  c.resources = res(500, 512 * MiB);
  fleet.cluster().create_pod(1, c, cpu_hog_workload(1, 1000 * sec));

  for (int cycle = 0; cycle < 4; ++cycle) {
    fleet.router()->set_rate(200.0);
    fleet.run(200 * msec);
    fleet.router()->set_rate(0.0);
    fleet.run(300 * msec);
  }
  ASSERT_GT(fleet.profiles()->service_correlation_permille("svc-a", "svc-b"),
            300);

  PodSpec replica;
  replica.name = "b-1";
  replica.service = "svc-b";
  replica.resources = res(500, 512 * MiB);
  const int placed = fleet.scheduler().place("profile", replica);
  ASSERT_GE(placed, 0);
  EXPECT_EQ(fleet.cluster().pod(placed).host, 1)
      << "correlated host 0 and same-service host 2 must both be avoided";
}

TEST(ProfileStrategy, PrunedProfilesNoLongerSizeANewReplica) {
  // Host 0 has 4 CPUs and 8 GiB, host 1 has 8 CPUs and only 2 GiB. Two "web"
  // replicas run as three-thread hogs (~3000m p95), then stop, and the store
  // prunes them. A new replica must then be sized from its 500m request:
  // host 0's CPU headroom (875) beats host 1's memory-bound score (~750).
  // Sized from the stopped replicas' ~3000m p95 instead, host 0 would drop
  // to ~250 and the replica would land on host 1.
  harness::FleetScenario fleet;
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.add_host(small_host(8, 2 * GiB));
  fleet.enable_profiles(fast_profiles());
  Cluster& cluster = fleet.cluster();
  std::vector<int> replicas;
  for (int h = 0; h < 2; ++h) {
    PodSpec spec;
    spec.name = "web-" + std::to_string(h);
    spec.service = "web";
    spec.resources = res(500, 256 * MiB);
    replicas.push_back(
        cluster.create_pod(h, spec, cpu_hog_workload(3, 1000 * sec)));
  }
  fleet.run(1 * sec);
  for (const int pod : replicas) {
    ASSERT_GT(fleet.profiles()->profile(pod).cpu_p95_millicpu, 2000);
    cluster.stop_pod(pod);
  }
  fleet.run(300 * msec);
  for (const int pod : replicas) {
    EXPECT_EQ(fleet.profiles()->profile(pod).samples, 0);
  }
  const auto pods =
      cluster.host(0).sysfs().host_fs().read("/sys/arv/fleet/pods");
  ASSERT_TRUE(pods.has_value());
  EXPECT_EQ(pods->find("samples="), std::string::npos)
      << "pruned pods must show no percentiles:\n" << *pods;

  PodSpec next;
  next.name = "web-2";
  next.service = "web";
  next.resources = res(500, 512 * MiB);
  const int placed = fleet.scheduler().place("profile", next);
  ASSERT_GE(placed, 0);
  EXPECT_EQ(cluster.pod(placed).host, 0);
}

// --- the rebalancer's profiled victim ----------------------------------------

TEST(Rebalancer, EvictsTheProfiledHotPodNotTheBigRequest) {
  // Host 0 (4 CPUs): a three-thread hog burning 3000m that declares a
  // *small* request, next to a zero-traffic web pod with a big request
  // whose always-runnable listener burns the fourth CPU — so the host has
  // no idle time and the rebalancer trips. The request-driven victim would
  // be the web pod (800m > 300m); the profiled victim is the hog
  // (p95 3000m > 1000m).
  Cluster cluster;
  cluster.add_host(small_host());
  cluster.add_host(small_host());
  const int hog = cluster.create_pod(0, {"hog", res(300, 512 * MiB)},
                                     cpu_hog_workload(3, 10000 * sec));
  server::WebConfig quiet_web;
  quiet_web.arrivals_per_sec = 0.0;  // idle: only the listener floor burns
  const int quiet = cluster.create_pod(0, {"quiet", res(800, 512 * MiB)},
                                       web_standalone(quiet_web));
  ProfileStore profiles(cluster, fast_profiles());
  cluster.add_component(&profiles);
  RebalanceConfig rebalance;
  rebalance.period = 100 * msec;
  rebalance.saturated_rounds = 3;
  rebalance.cooldown = 1 * sec;
  rebalance.min_residency = 500 * msec;
  Rebalancer rebalancer(cluster, rebalance);
  cluster.add_component(&rebalancer);
  cluster.run_for(5 * sec);

  EXPECT_GE(rebalancer.migrations(), 1u);
  EXPECT_EQ(cluster.pod(hog).host, 1) << "the hot pod must be the victim";
  EXPECT_EQ(cluster.pod(quiet).host, 0);
  // The profiled path keeps no per-round usage baselines at all.
  EXPECT_EQ(rebalancer.tracked_pods(), 0);
}

TEST(Rebalancer, UsageBaselinesStayBoundedWithoutProfiles) {
  // Regression for the fallback victim signal: baselines must be pruned as
  // pods stop, so pod_last_usage_ never outlives the fleet's running set.
  Cluster cluster;
  cluster.add_host(small_host());
  std::vector<int> pods;
  for (int i = 0; i < 3; ++i) {
    pods.push_back(cluster.create_pod(0,
                                      {"p" + std::to_string(i),
                                       res(200, 256 * MiB)},
                                      cpu_hog_workload(1, 1000 * sec)));
  }
  RebalanceConfig rebalance;
  rebalance.period = 100 * msec;
  Rebalancer rebalancer(cluster, rebalance);
  cluster.add_component(&rebalancer);
  cluster.run_for(500 * msec);
  EXPECT_EQ(rebalancer.tracked_pods(), 3);
  cluster.stop_pod(pods[0]);
  cluster.stop_pod(pods[1]);
  cluster.run_for(300 * msec);
  EXPECT_EQ(rebalancer.tracked_pods(), 1)
      << "baselines of stopped pods must be pruned";
}

// --- scenario knobs -----------------------------------------------------------

TEST(FleetScenario, PlacementDefaultAndProfileKnobs) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  EXPECT_EQ(fleet.profiles(), nullptr);
  fleet.enable_profiles(fast_profiles());
  ASSERT_NE(fleet.profiles(), nullptr);
  EXPECT_EQ(fleet.cluster().profiles(), fleet.profiles());

  // The strategy-less overloads route through use_placement's default.
  const int a = fleet.place_pod(res(200, 256 * MiB));
  ASSERT_GE(a, 0);
  fleet.use_placement("profile");
  const int b = fleet.place_pod(res(200, 256 * MiB),
                                cpu_hog_workload(1, 10 * sec));
  ASSERT_GE(b, 0);
  fleet.run(500 * msec);
  EXPECT_GT(fleet.profiles()->rounds(), 0u);
  // The shared snapshot points at the live pods and the profile store.
  const FleetView& view = fleet.cluster().fleet_view();
  EXPECT_EQ(view.profiles, fleet.profiles());
  ASSERT_NE(view.pods, nullptr);
  EXPECT_EQ(static_cast<int>(view.pods->size()), fleet.cluster().pod_count());
  EXPECT_GT(view.profiles->profile(b).samples, 0);
}

}  // namespace
}  // namespace arv::cluster
