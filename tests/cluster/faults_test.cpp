// FaultInjector mechanics: each fault kind fires at its scheduled time,
// recovers on schedule, and the cluster's crash primitives keep the pod
// ledger and request accounting consistent through it all.
#include "src/cluster/faults.h"

#include <gtest/gtest.h>

#include "src/cluster/pod_workloads.h"
#include "src/cluster/scheduler.h"
#include "src/container/host.h"
#include "src/core/ns_monitor.h"
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

TEST(Cluster, CrashPodKeepsLedgerSlotAndHarvestsStats) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  server::WebConfig web;
  web.arrivals_per_sec = 200;
  const int pod = cluster.create_pod(0, {"web", res(1000, 1 * GiB)},
                                     web_standalone(web));
  cluster.run_for(1 * sec);
  ASSERT_GT(cluster.pod(pod).workload->request_sink()->stats().completed, 0u);

  cluster.crash_pod(pod);
  EXPECT_FALSE(cluster.pod(pod).running());
  EXPECT_TRUE(cluster.pod(pod).failed);
  EXPECT_FALSE(cluster.pod(pod).in_flight());
  EXPECT_EQ(cluster.pod(pod).host, 0);
  EXPECT_EQ(cluster.pod_crashes(), 1u);
  // The slot stays reserved for the restart, and history was harvested.
  EXPECT_EQ(cluster.host_view(0).requested_millicpu, 1000);
  EXPECT_EQ(cluster.pods_on(0), 1);
  EXPECT_GT(cluster.pod(pod).archived.completed, 0u);

  cluster.restart_pod(pod);
  EXPECT_TRUE(cluster.pod(pod).running());
  EXPECT_FALSE(cluster.pod(pod).failed);
  EXPECT_EQ(cluster.pod(pod).restarts, 1);
  EXPECT_EQ(cluster.host_view(0).requested_millicpu, 1000);
  cluster.run_for(1 * sec);
  EXPECT_GT(cluster.pod(pod).workload->request_sink()->stats().completed, 0u);
}

TEST(Cluster, CrashHostFailsItsPodsAndBlocksPlacement) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  const int a = cluster.create_pod(0, {"a", res(500, 512 * MiB)},
                                   cpu_hog_workload(1, 10 * sec));
  const int b = cluster.create_pod(0, {"b", res(500, 512 * MiB)},
                                   cpu_hog_workload(1, 10 * sec));
  cluster.run_for(100 * msec);

  cluster.crash_host(0);
  EXPECT_FALSE(cluster.host_up(0));
  EXPECT_TRUE(cluster.host_up(1));
  EXPECT_TRUE(cluster.pod(a).failed);
  EXPECT_TRUE(cluster.pod(b).failed);
  EXPECT_EQ(cluster.host_crashes(), 1u);
  EXPECT_FALSE(cluster.host_view(0).up);

  // The fleet stays in lockstep: the down host's clock keeps advancing.
  cluster.run_for(100 * msec);
  EXPECT_EQ(cluster.host(0).now(), cluster.host(1).now());

  cluster.reboot_host(0);
  EXPECT_TRUE(cluster.host_up(0));
  // Pods do not auto-restart on reboot; that is the RestartManager's call.
  EXPECT_TRUE(cluster.pod(a).failed);
  cluster.restart_pod(a);
  cluster.restart_pod(b);
  EXPECT_TRUE(cluster.pod(a).running());
  EXPECT_TRUE(cluster.pod(b).running());
}

TEST(Cluster, CrashHostLosesInFlightMigrationTowardIt) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(500, 512 * MiB)},
                                     mem_hog_workload(128 * MiB, 1 * GiB));
  cluster.run_for(500 * msec);
  cluster.migrate_pod(pod, 1);
  ASSERT_TRUE(cluster.pod(pod).in_flight());

  cluster.crash_host(1);
  // The flight was toward the dead host: the pod fails in place there.
  EXPECT_TRUE(cluster.pod(pod).failed);
  EXPECT_FALSE(cluster.pod(pod).in_flight());
  EXPECT_EQ(cluster.pod(pod).host, 1);
  cluster.run_for(1 * sec);  // the due time passes without a landing
  EXPECT_FALSE(cluster.pod(pod).running());

  // Failover rescues it onto the surviving host.
  cluster.failover_pod(pod, 0);
  EXPECT_TRUE(cluster.pod(pod).running());
  EXPECT_EQ(cluster.pod(pod).host, 0);
  EXPECT_EQ(cluster.pod(pod).failovers, 1);
  EXPECT_EQ(cluster.host_view(1).requested_millicpu, 0);
  EXPECT_EQ(cluster.host_view(0).requested_millicpu, 500);
}

TEST(FaultInjector, FiresEventsOnScheduleAndRecovers) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 60 * sec));

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kHostCrash;
  crash.at = 100 * msec;
  crash.host = 1;
  crash.duration = 300 * msec;  // reboots at 400ms
  plan.add(crash);
  FaultEvent kill;
  kill.kind = FaultEvent::Kind::kPodCrash;
  kill.at = 200 * msec;
  kill.pod = pod;
  plan.add(kill);
  FaultInjector injector(cluster, std::move(plan));
  cluster.add_component(&injector);

  cluster.run_for(150 * msec);
  EXPECT_FALSE(cluster.host_up(1));
  EXPECT_FALSE(cluster.pod(pod).failed);
  cluster.run_for(150 * msec);
  EXPECT_TRUE(cluster.pod(pod).failed);
  EXPECT_FALSE(injector.done());
  cluster.run_for(200 * msec);
  EXPECT_TRUE(cluster.host_up(1));  // rebooted on schedule
  EXPECT_TRUE(injector.done());
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.skipped(), 0u);
}

TEST(FaultInjector, SkipsEventsWithNoEffect) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kHostCrash;
  crash.at = 10 * msec;
  crash.host = 0;
  plan.add(crash);
  plan.add(crash);  // second crash of the same (already down) host
  FaultEvent kill;
  kill.kind = FaultEvent::Kind::kPodCrash;
  kill.at = 20 * msec;
  kill.pod = 7;  // never created
  plan.add(kill);
  FaultInjector injector(cluster, std::move(plan));
  cluster.add_component(&injector);
  cluster.run_for(100 * msec);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.skipped(), 2u);
  EXPECT_FALSE(cluster.host_up(0));
  // A permanent crash (duration 0) schedules no reboot, so nothing is
  // outstanding once the plan drains.
  EXPECT_TRUE(injector.done());
}

TEST(FaultInjector, MemoryPressureEngagesReclaimThenLifts) {
  Cluster cluster;
  cluster.add_host(small_host(4, 4 * GiB));
  // A resident workload to reclaim from.
  cluster.create_pod(0, {"m", res(500, 2 * GiB)},
                     mem_hog_workload(1 * GiB, 8 * GiB));
  cluster.run_for(500 * msec);
  ASSERT_EQ(cluster.host(0).memory().kswapd_wakeups(), 0u);

  FaultPlan plan;
  FaultEvent pressure;
  pressure.kind = FaultEvent::Kind::kMemoryPressure;
  pressure.at = 600 * msec;
  pressure.host = 0;
  pressure.permille = 900;  // pin 90% of RAM
  pressure.duration = 400 * msec;
  plan.add(pressure);
  FaultInjector injector(cluster, std::move(plan));
  cluster.add_component(&injector);

  cluster.run_for(500 * msec);
  EXPECT_GT(cluster.host(0).memory().kswapd_wakeups(), 0u)
      << "pinning 90% of RAM must push free memory below the low watermark";
  cluster.run_for(1 * sec);
  EXPECT_TRUE(injector.done());
  // Reservation lifted: free memory recovers well past the pinned level.
  EXPECT_GT(cluster.host(0).memory().free_memory(),
            static_cast<Bytes>(1 * GiB));
}

TEST(FaultInjector, MonitorStallFreezesViewsThenCatchesUp) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.create_pod(0, {"p", res(1000, 1 * GiB)},
                     cpu_hog_workload(2, 60 * sec));
  cluster.run_for(200 * msec);
  core::NsMonitor& monitor = cluster.host(0).monitor();
  const std::uint64_t rounds_before = monitor.update_rounds();
  ASSERT_GT(rounds_before, 0u);

  FaultPlan plan;
  FaultEvent stall;
  stall.kind = FaultEvent::Kind::kMonitorStall;
  stall.at = 250 * msec;
  stall.host = 0;
  stall.duration = 300 * msec;
  plan.add(stall);
  FaultInjector injector(cluster, std::move(plan));
  cluster.add_component(&injector);

  cluster.run_for(300 * msec);  // inside the stall window
  EXPECT_TRUE(monitor.stalled());
  EXPECT_GT(monitor.stalled_rounds(), 0u);
  const std::uint64_t rounds_stalled = monitor.update_rounds();
  cluster.run_for(500 * msec);  // stall lifts at 550ms
  EXPECT_FALSE(monitor.stalled());
  EXPECT_GT(monitor.update_rounds(), rounds_stalled)
      << "monitor must resume update rounds after the stall lifts";
  EXPECT_TRUE(injector.done());
}

TEST(FaultPlan, RandomPlanIsDeterministicInTheSeed) {
  ChaosOptions options;
  Rng a(123);
  Rng b(123);
  const FaultPlan plan_a = FaultPlan::random(a, options, 4, 10);
  const FaultPlan plan_b = FaultPlan::random(b, options, 4, 10);
  ASSERT_EQ(plan_a.events.size(), plan_b.events.size());
  EXPECT_EQ(plan_a.events.size(),
            static_cast<std::size_t>(options.host_crashes +
                                     options.pod_crashes +
                                     options.pressure_spikes +
                                     options.monitor_stalls));
  for (std::size_t i = 0; i < plan_a.events.size(); ++i) {
    EXPECT_EQ(plan_a.events[i].kind, plan_b.events[i].kind);
    EXPECT_EQ(plan_a.events[i].at, plan_b.events[i].at);
    EXPECT_EQ(plan_a.events[i].host, plan_b.events[i].host);
    EXPECT_EQ(plan_a.events[i].pod, plan_b.events[i].pod);
    EXPECT_EQ(plan_a.events[i].duration, plan_b.events[i].duration);
    EXPECT_LT(plan_a.events[i].at, options.horizon);
  }
}

// Satellite regression: stopping a pod mid-flight used to double-book the
// target ledger (the reservation leaked) and crash on the null container.
TEST(Cluster, StopPodInFlightReleasesTargetReservation) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(700, 512 * MiB)},
                                     mem_hog_workload(128 * MiB, 1 * GiB));
  cluster.run_for(500 * msec);
  cluster.migrate_pod(pod, 1);
  ASSERT_TRUE(cluster.pod(pod).in_flight());
  ASSERT_EQ(cluster.host_view(1).requested_millicpu, 700);

  cluster.stop_pod(pod);
  EXPECT_FALSE(cluster.pod(pod).in_flight());
  EXPECT_FALSE(cluster.pod(pod).running());
  EXPECT_EQ(cluster.pod(pod).host, -1);
  EXPECT_EQ(cluster.host_view(0).requested_millicpu, 0);
  EXPECT_EQ(cluster.host_view(1).requested_millicpu, 0);
  EXPECT_EQ(cluster.pods_on(0), 0);
  EXPECT_EQ(cluster.pods_on(1), 0);
  // The cancelled landing must never materialize.
  cluster.run_for(2 * sec);
  EXPECT_FALSE(cluster.pod(pod).running());
  EXPECT_EQ(cluster.pods_on(1), 0);
}

TEST(Cluster, StopFailedPodReleasesSlot) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  const int pod = cluster.create_pod(0, {"p", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 10 * sec));
  cluster.run_for(100 * msec);
  cluster.crash_pod(pod);
  ASSERT_TRUE(cluster.pod(pod).failed);
  cluster.stop_pod(pod);  // operator deletes the crashed pod
  EXPECT_FALSE(cluster.pod(pod).failed);
  EXPECT_EQ(cluster.pod(pod).host, -1);
  EXPECT_EQ(cluster.host_view(0).requested_millicpu, 0);
  EXPECT_EQ(cluster.pods_on(0), 0);
}

}  // namespace
}  // namespace arv::cluster
