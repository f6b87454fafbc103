// Failure recovery: the FailureDetector's declare-then-evacuate loop and the
// RestartManager's CrashLoopBackOff, including OOM-kill conversion.
#include "src/cluster/recovery.h"

#include <gtest/gtest.h>

#include "src/cluster/faults.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/scheduler.h"
#include "src/container/host.h"
#include "src/harness/scenario.h"
#include "src/mem/memory_manager.h"

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

TEST(FailureDetector, DeclaresAfterMissThresholdThenFailsOver) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 60 * sec));
  DetectorConfig config;
  config.period = 100 * msec;
  config.miss_threshold = 3;
  FailureDetector detector(cluster, config);
  cluster.add_component(&detector);
  cluster.run_for(500 * msec);
  EXPECT_EQ(detector.declarations(), 0u);

  cluster.crash_host(0);
  // Two rounds down: still within the blip window, nothing moves.
  cluster.run_for(200 * msec);
  EXPECT_EQ(detector.declarations(), 0u);
  EXPECT_TRUE(cluster.pod(pod).failed);
  // The third missed round declares the host dead and evacuates.
  cluster.run_for(200 * msec);
  EXPECT_EQ(detector.declarations(), 1u);
  EXPECT_EQ(detector.failovers_initiated(), 1u);
  EXPECT_TRUE(cluster.pod(pod).running());
  EXPECT_EQ(cluster.pod(pod).host, 1);
  EXPECT_EQ(cluster.failovers(), 1u);
  EXPECT_EQ(detector.declared_dead(), 1);
  EXPECT_TRUE(detector.is_declared_dead(0));

  cluster.reboot_host(0);
  cluster.run_for(200 * msec);
  EXPECT_EQ(detector.declared_dead(), 0);
}

TEST(FailureDetector, FastRebootIsABlipNotACrash) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 60 * sec));
  DetectorConfig config;
  config.period = 100 * msec;
  config.miss_threshold = 5;
  FailureDetector detector(cluster, config);
  cluster.add_component(&detector);
  cluster.run_for(100 * msec);

  cluster.crash_host(0);
  cluster.run_for(200 * msec);  // back up well inside the window
  cluster.reboot_host(0);
  cluster.run_for(1 * sec);
  EXPECT_EQ(detector.declarations(), 0u);
  EXPECT_EQ(detector.failovers_initiated(), 0u);
  // The pod still failed (the crash killed it) but stays on its host for
  // the cheaper restart-in-place path.
  EXPECT_TRUE(cluster.pod(pod).failed);
  EXPECT_EQ(cluster.pod(pod).host, 0);
}

TEST(FailureDetector, DefersWhenNoTargetFitsAndRetries) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(1, 1 * GiB));  // too little free memory
  cluster.add_host(small_host(4, 8 * GiB));  // big, but saturated for now
  // The filler keeps all four CPUs busy: the failover strategy
  // ("effective") sees no observed slack on host 2.
  const int filler = cluster.create_pod(2, {"filler", res(500, 512 * MiB)},
                                        cpu_hog_workload(4, 60 * sec));
  const int pod = cluster.create_pod(0, {"p", res(3000, 4 * GiB)},
                                     cpu_hog_workload(2, 60 * sec));
  DetectorConfig config;
  config.period = 100 * msec;
  config.miss_threshold = 2;
  FailureDetector detector(cluster, config);
  cluster.add_component(&detector);
  cluster.run_for(100 * msec);

  cluster.crash_host(0);
  cluster.run_for(1 * sec);
  EXPECT_EQ(detector.failovers_initiated(), 0u);
  EXPECT_GT(detector.deferred(), 0u);
  EXPECT_TRUE(cluster.pod(pod).failed);

  // Capacity appears (the filler is deleted): the next round places it.
  cluster.stop_pod(filler);
  cluster.run_for(300 * msec);
  EXPECT_TRUE(cluster.pod(pod).running());
  EXPECT_EQ(cluster.pod(pod).host, 2);
  EXPECT_EQ(detector.failovers_initiated(), 1u);
}

TEST(RestartManager, RestartsAfterBackoff) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 60 * sec));
  RestartConfig config;
  config.period = 50 * msec;
  config.backoff_base = 200 * msec;
  RestartManager manager(cluster, config);
  cluster.add_component(&manager);
  cluster.run_for(100 * msec);

  cluster.crash_pod(pod);
  cluster.run_for(100 * msec);  // backoff not yet served
  EXPECT_FALSE(cluster.pod(pod).running());
  EXPECT_EQ(manager.crash_streak(pod), 1);
  cluster.run_for(300 * msec);
  EXPECT_TRUE(cluster.pod(pod).running());
  EXPECT_EQ(manager.restarts_issued(), 1u);
  EXPECT_EQ(cluster.pod(pod).restarts, 1);
}

TEST(RestartManager, BackoffDoublesAndCaps) {
  Cluster cluster;
  RestartConfig config;
  config.backoff_base = 100 * msec;
  config.backoff_cap = 1 * sec;
  RestartManager manager(cluster, config);
  EXPECT_EQ(manager.backoff_for(1), 100 * msec);
  EXPECT_EQ(manager.backoff_for(2), 200 * msec);
  EXPECT_EQ(manager.backoff_for(3), 400 * msec);
  EXPECT_EQ(manager.backoff_for(4), 800 * msec);
  EXPECT_EQ(manager.backoff_for(5), 1 * sec);
  EXPECT_EQ(manager.backoff_for(50), 1 * sec);  // capped, no overflow
}

TEST(RestartManager, CrashLoopBacksOffExponentially) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 600 * sec));
  RestartConfig config;
  config.period = 10 * msec;
  config.backoff_base = 100 * msec;
  config.backoff_cap = 2 * sec;
  RestartManager manager(cluster, config);
  cluster.add_component(&manager);

  // Crash the pod the moment it comes back, five times over; each recovery
  // must take longer than the last. The loop stays well inside the 10 s
  // stable run (recovery.cpp's kResetAfter) that would clear the streak.
  SimTime last_recovery = 0;
  SimDuration last_outage = 0;
  for (int round = 0; round < 5; ++round) {
    cluster.crash_pod(pod);
    const SimTime crashed = cluster.now();
    while (!cluster.pod(pod).running()) {
      cluster.step();
      ASSERT_LT(cluster.now(), crashed + 10 * sec) << "restart never came";
    }
    const SimDuration outage = cluster.now() - crashed;
    if (round > 0) {
      EXPECT_GT(outage, last_outage) << "backoff did not grow on round "
                                     << round;
    }
    last_outage = outage;
    last_recovery = cluster.now();
  }
  EXPECT_EQ(manager.crash_streak(pod), 5);
  EXPECT_EQ(cluster.pod(pod).restarts, 5);
  (void)last_recovery;
}

TEST(RestartManager, StableRunResetsTheStreak) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 600 * sec));
  RestartConfig config;
  config.period = 10 * msec;
  config.backoff_base = 100 * msec;
  RestartManager manager(cluster, config);
  cluster.add_component(&manager);

  // recovery.cpp's kResetAfter: the stable run that clears the streak.
  constexpr SimDuration kResetAfter = 10 * sec;
  cluster.crash_pod(pod);
  cluster.run_for(500 * msec);
  ASSERT_TRUE(cluster.pod(pod).running());
  const SimTime placed = cluster.pod(pod).placed_at;
  ASSERT_EQ(manager.crash_streak(pod), 1);
  cluster.run_for(placed + kResetAfter - 100 * msec - cluster.now());
  EXPECT_EQ(manager.crash_streak(pod), 1);  // not yet stable long enough
  cluster.run_for(200 * msec);  // stable past kResetAfter
  EXPECT_EQ(manager.crash_streak(pod), 0);
}

TEST(RestartManager, ConvertsOomKillToCrashLoop) {
  Cluster cluster;
  container::HostConfig host = small_host(4, 2 * GiB);
  host.mem.swap_size = 0;  // no swap: exhausting RAM means an OOM kill
  cluster.add_host(host);
  // A hog that charges far past physical memory with no swap to absorb it:
  // the memory manager eventually OOM-kills the cgroup.
  const int pod = cluster.create_pod(0, {"glutton", res(500, 512 * MiB)},
                                     mem_hog_workload(16 * GiB, 8 * GiB));
  RestartConfig config;
  config.period = 50 * msec;
  config.backoff_base = 100 * msec;
  RestartManager manager(cluster, config);
  cluster.add_component(&manager);
  cluster.run_for(60 * sec);

  EXPECT_GT(manager.oom_crashes(), 0u)
      << "the glutton should have been OOM-killed and noticed";
  EXPECT_GT(manager.restarts_issued(), 0u);
  EXPECT_EQ(cluster.pod_crashes(), manager.oom_crashes());
}

TEST(FleetScenario, RecoveryKeepsServiceAvailableThroughHostCrash) {
  ClusterConfig cluster_config;
  cluster_config.seed = 7;
  harness::FleetScenario fleet(cluster_config);
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.add_host(small_host(4, 8 * GiB));
  RouterConfig router;
  router.arrivals_per_sec = 400;
  fleet.enable_router(router);
  DetectorConfig detector;
  detector.period = 100 * msec;
  detector.miss_threshold = 2;
  RestartConfig restart;
  restart.period = 50 * msec;
  fleet.enable_recovery(detector, restart);
  server::WebConfig web;
  web.service_cpu = 4 * msec;
  // Pin one replica per host (strategy tie-breaks could co-locate them, and
  // the test needs a survivor).
  const int a = fleet.cluster().create_pod(0, {"web-a", res(1000, 1 * GiB)},
                                           web_replica(web));
  const int b = fleet.cluster().create_pod(1, {"web-b", res(1000, 1 * GiB)},
                                           web_replica(web));
  ASSERT_TRUE(fleet.router()->add_replica(a));
  ASSERT_TRUE(fleet.router()->add_replica(b));
  fleet.run(2 * sec);
  const std::uint64_t routed_before = fleet.router()->routed();
  ASSERT_GT(routed_before, 0u);

  // Kill whichever host holds pod 0; the detector evacuates, the router
  // keeps serving from the survivor, and no request is ever unroutable.
  fleet.cluster().crash_host(fleet.cluster().pod(0).host);
  fleet.run(3 * sec);
  EXPECT_GT(fleet.cluster().failovers(), 0u);
  EXPECT_TRUE(fleet.cluster().pod(0).running());
  EXPECT_TRUE(fleet.cluster().pod(1).running());
  EXPECT_GT(fleet.router()->routed(), routed_before);
  EXPECT_EQ(fleet.router()->unroutable(), 0u)
      << "one replica survived the crash; nothing should be unroutable";
}

TEST(FailureDetector, SimultaneousDeathsDoNotStackRefugeesOnOneTarget) {
  // Regression: the detector used to re-read host_views() after every
  // failover inside one evacuation round. The re-read restored the target's
  // *observed* slack (the refugee just landed and has burned nothing yet),
  // so every refugee of the round scored the same idle host best and piled
  // onto it, blowing straight past the headroom that made it attractive.
  // The fix claims each landing against the round's working views instead.
  Cluster cluster;
  cluster.add_host(small_host(8, 8 * GiB));  // dies
  cluster.add_host(small_host(8, 8 * GiB));  // dies
  cluster.add_host(small_host(8, 8 * GiB));  // idle: 8000m observed slack
  cluster.add_host(small_host(8, 8 * GiB));  // busy: ~2000m observed slack
  const int a = cluster.create_pod(0, {"a", res(7000, 512 * MiB)},
                                   cpu_hog_workload(7, 600 * sec));
  const int b = cluster.create_pod(1, {"b", res(7000, 512 * MiB)},
                                   cpu_hog_workload(7, 600 * sec));
  cluster.create_pod(3, {"busy", res(1000, 512 * MiB)},
                     cpu_hog_workload(6, 600 * sec));
  DetectorConfig config;
  config.period = 100 * msec;
  config.miss_threshold = 2;
  FailureDetector detector(cluster, config);
  cluster.add_component(&detector);
  cluster.run_for(1 * sec);  // observation windows see the real usage

  // Both hosts die in the same tick; both pods race for new homes in the
  // same evacuation round.
  cluster.crash_host(0);
  cluster.crash_host(1);
  cluster.run_for(1 * sec);

  ASSERT_TRUE(cluster.pod(a).running());
  ASSERT_TRUE(cluster.pod(b).running());
  EXPECT_EQ(cluster.failovers(), 2u);
  // The first refugee takes the idle host and consumes its headroom; the
  // claimed view must push the second to the busy-but-feasible one.
  EXPECT_NE(cluster.pod(a).host, cluster.pod(b).host)
      << "both refugees stacked onto one target from a stale view";
  EXPECT_EQ(cluster.pod(a).host, 2);
  EXPECT_EQ(cluster.pod(b).host, 3);
}

}  // namespace
}  // namespace arv::cluster
