// FleetView battery (`ctest -L fleetview`): the shared cluster snapshot must
// be invisible in every observable. The same fleet — profile placement, all
// control loops on — replayed with the incremental in-place refresh and with
// a forced full re-observe every round must produce byte-identical traces
// *and* byte-identical /sys/arv/fleet/ renders (seed coverage scales with
// ARV_CHAOS_ITERS); a serial-phase probe pins that components always read a
// snapshot standing at cluster time whose host rows match ground truth; and
// /sys/arv/fleet/pods renders the live pods on every read.
#include "src/cluster/fleet_view.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/profile.h"
#include "src/cluster/router.h"
#include "src/container/host.h"
#include "src/harness/scenario.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

/// Seeds the refresh reference check sweeps; scales with ARV_CHAOS_ITERS like
/// the chaos suites (CI soaks hundreds, the default keeps runs fast).
int sweep_iterations() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  const int iters = env == nullptr ? 0 : std::atoi(env);
  return iters > 0 ? iters : 3;
}

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

HostView idle_view(int index, std::int64_t capacity_millicpu = 4000,
                   Bytes capacity_memory = 8 * GiB) {
  HostView view;
  view.index = index;
  view.capacity_millicpu = capacity_millicpu;
  view.capacity_memory = capacity_memory;
  view.slack_millicpu = capacity_millicpu;
  view.free_memory = capacity_memory;
  return view;
}

// --- snapshot-object units --------------------------------------------------

TEST(FleetView, FromHostsWrapsHandBuiltViews) {
  const FleetView fleet = FleetView::from_hosts({idle_view(0), idle_view(1)});
  EXPECT_EQ(fleet.host_count(), 2);
  EXPECT_EQ(fleet.hosts[1].index, 1);
  EXPECT_EQ(fleet.pods, nullptr);
  EXPECT_EQ(fleet.profiles, nullptr);
}

TEST(FleetView, ClaimChargesTheHost) {
  FleetView fleet = FleetView::from_hosts({idle_view(0)});
  fleet.claim(0, res(1000, 1 * GiB));
  const HostView& view = fleet.hosts[0];
  EXPECT_EQ(view.requested_millicpu, 1000);
  EXPECT_EQ(view.requested_memory, 1 * GiB);
  EXPECT_EQ(view.slack_millicpu, 3000);
  EXPECT_EQ(view.free_memory, 7 * GiB);
  EXPECT_EQ(view.pods, 1);
}

TEST(FleetView, ReserveDeductsOnlyObservedAxes) {
  FleetView fleet = FleetView::from_hosts({idle_view(0)});
  fleet.reserve(0, res(1500, 2 * GiB));
  const HostView& view = fleet.hosts[0];
  EXPECT_EQ(view.slack_millicpu, 2500);
  EXPECT_EQ(view.free_memory, 6 * GiB);
  EXPECT_EQ(view.requested_millicpu, 0);  // ledger untouched
  EXPECT_EQ(view.pods, 0);
  // Deductions clamp at zero — an over-reserve never goes negative.
  fleet.reserve(0, res(1000000, 1024 * GiB));
  EXPECT_EQ(fleet.hosts[0].slack_millicpu, 0);
  EXPECT_EQ(fleet.hosts[0].free_memory, 0);
}

// --- published files ---------------------------------------------------------

TEST(FleetViewGeneration, RowsAreReusedForQuiescentHosts) {
  ClusterConfig config;
  config.skip_idle_hosts = true;
  Cluster cluster(config);
  for (int i = 0; i < 4; ++i) {
    cluster.add_host(small_host());
  }
  cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 60 * sec));
  cluster.run_for(500 * msec);
  // Three of four hosts never receive work; their rows must have been left in
  // place, not re-observed, on (nearly) every refresh.
  EXPECT_GT(cluster.fleet_rows_reused(), 0u);
}

TEST(FleetViewGeneration, ProfileReadsLeaveAFrozenHostsRowInPlace) {
  // Reading a pod's counters neither syncs nor marks its host: a ProfileStore
  // sampling an idle, view-less pod on a frozen host re-observes no row the
  // same fleet without the store would have left in place.
  const auto run = [](bool with_profiles) {
    Cluster cluster;
    cluster.add_host(small_host());
    cluster.add_host(small_host());
    PodSpec spec{"idle", res(500, 512 * MiB)};
    spec.enable_view = false;
    const int pod = cluster.create_pod(1, spec);
    std::optional<ProfileStore> profiles;
    if (with_profiles) {
      ProfileConfig config;
      config.period = 50 * msec;
      config.window_rounds = 8;
      config.min_samples = 4;
      profiles.emplace(cluster, config);
      cluster.add_component(&*profiles);
    }
    cluster.run_for(2 * sec);
    EXPECT_GT(cluster.hosts_skipped(), 0u);
    if (profiles) {
      EXPECT_GT(profiles->profile(pod).samples, 0) << "the store never sampled";
    }
    return cluster.fleet_rows_reused();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(FleetViewFiles, RenderTheCurrentSnapshot) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.place_pod("effective", res(500, 512 * MiB),
                  cpu_hog_workload(1, 60 * sec));
  fleet.run(200 * msec);
  Cluster& cluster = fleet.cluster();
  const vfs::PseudoFs& fs = cluster.host(0).sysfs().host_fs();

  const auto hosts = fs.read("/sys/arv/fleet/hosts");
  ASSERT_TRUE(hosts.has_value());
  EXPECT_EQ(hosts->rfind("h0 cap=", 0), 0u);
  const auto pods = fs.read("/sys/arv/fleet/pods");
  ASSERT_TRUE(pods.has_value());
  EXPECT_EQ(pods->rfind("pod0 host=0", 0), 0u);

  // Re-reading without a state change renders the same text.
  EXPECT_EQ(fs.read("/sys/arv/fleet/hosts"), hosts);
  EXPECT_EQ(fs.read("/sys/arv/fleet/pods"), pods);
}

TEST(FleetViewFiles, PodsRenderOnRead) {
  Cluster cluster;
  cluster.add_host(small_host());
  const int pod = cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 60 * sec));
  cluster.run_for(200 * msec);
  const vfs::PseudoFs& fs = cluster.host(0).sysfs().host_fs();
  ASSERT_EQ(fs.read("/sys/arv/fleet/pods")->rfind("pod0 host=0 ", 0), 0u);
  // No step, so no snapshot refresh, between the stop and the read: the
  // file must still show the pod as it is now.
  cluster.stop_pod(pod);
  EXPECT_EQ(fs.read("/sys/arv/fleet/pods"),
            "pod0 host=-1 svc=hog req=500m/536870912 committed=0 stopped\n");
}

// --- incremental refresh vs full re-observe ---------------------------------

/// Forces a full row re-observe plus a mid-tick refresh every component
/// round. If leaving rows of provably-unchanged hosts in place ever diverged
/// from re-observing them, a fleet running this spy would trace differently
/// from one without it.
class FullRebuildSpy final : public sim::TickComponent {
 public:
  explicit FullRebuildSpy(Cluster& cluster) : cluster_(cluster) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    cluster_.invalidate_fleet_view();
    const FleetView& fleet = cluster_.fleet_view();
    EXPECT_EQ(fleet.at, now);
  }
  std::string name() const override { return "test.full_rebuild_spy"; }
  SimDuration tick_period() const override { return 0; }

 private:
  Cluster& cluster_;
};

struct SweepResult {
  std::string trace;
  std::string hosts_render;
  std::string pods_render;
  std::uint64_t rows_reused = 0;
  std::uint64_t migrations = 0;
  std::uint64_t routed = 0;
};

/// One fleet at `seed`; any seed but 42 also draws a randomized fault plan
/// from it, so crashes, reboots and failovers hit the refresh too.
SweepResult run_sweep_fleet(std::uint64_t seed, bool full_rebuild_every_round) {
  ClusterConfig config;
  config.seed = seed;
  config.enable_tracing = true;
  config.trace_interval = 10 * msec;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < 4; ++i) {
    fleet.add_host(small_host());
  }
  fleet.enable_router(250.0);
  fleet.enable_recovery();
  RebalanceConfig rebalance;
  rebalance.period = 250 * msec;
  fleet.enable_rebalancer(rebalance);
  ProfileConfig profiles;
  profiles.period = 50 * msec;
  profiles.window_rounds = 16;
  profiles.min_samples = 4;
  fleet.enable_profiles(profiles);
  fleet.use_placement("profile");

  Cluster& cluster = fleet.cluster();
  FullRebuildSpy spy(cluster);
  if (full_rebuild_every_round) {
    cluster.add_component(&spy);
  }
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 100;
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(fleet.place_web_pod(res(1000, 1 * GiB), web), 0);
  }
  EXPECT_GE(fleet.place_pod(res(500, 512 * MiB),
                            cpu_hog_workload(1, 60 * sec)),
            0);
  if (seed != 42) {
    Rng chaos_rng(seed);
    ChaosOptions chaos;
    chaos.horizon = 1 * sec;  // leave a recovery tail
    fleet.enable_faults(FaultPlan::random(chaos_rng, chaos,
                                          cluster.host_count(),
                                          cluster.pod_count()));
  }
  fleet.run(2 * sec);

  SweepResult result;
  result.trace = cluster.trace()->to_csv();
  result.hosts_render = cluster.fleet_view().render_hosts();
  result.pods_render =
      cluster.host(0).sysfs().host_fs().read("/sys/arv/fleet/pods").value_or("");
  result.rows_reused = cluster.fleet_rows_reused();
  result.migrations = cluster.migrations();
  result.routed = fleet.router()->routed();
  return result;
}

TEST(FleetViewDeterminism, IncrementalRefreshEqualsFullRebuild) {
  // Same fleet, one run leaving rows of provably-unchanged hosts in place,
  // the other forced to re-observe every row every round. Every observable
  // — trace included — must match; only the reuse counter itself may differ.
  // Seed 42 runs fault-free; the other seeds add a randomized fault plan.
  std::uint64_t incremental_reused = 0;
  std::uint64_t full_reused = 0;
  for (int i = 0; i < sweep_iterations(); ++i) {
    const std::uint64_t seed = 42 + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    const SweepResult incremental = run_sweep_fleet(seed, false);
    const SweepResult full = run_sweep_fleet(seed, true);
    EXPECT_EQ(incremental.trace, full.trace);
    EXPECT_EQ(incremental.hosts_render, full.hosts_render);
    EXPECT_EQ(incremental.pods_render, full.pods_render);
    EXPECT_EQ(incremental.migrations, full.migrations);
    EXPECT_EQ(incremental.routed, full.routed);
    incremental_reused += incremental.rows_reused;
    full_reused += full.rows_reused;
  }
  // Both runs reuse rows at refresh boundaries (the exact counts differ —
  // the spy forces a rebuild every round); what matters is the path is
  // exercised.
  EXPECT_GT(incremental_reused, 0u);
  EXPECT_GT(full_reused, 0u);
}

// --- serial-phase contract ----------------------------------------------------

/// Registered before the fault machinery: at every component round the
/// snapshot must stand exactly at cluster time, list every host, and agree
/// row by row with the cluster's ground truth — even right before a crash
/// lands, and for every row the in-place refresh left alone.
class SnapshotProbe final : public sim::TickComponent {
 public:
  explicit SnapshotProbe(Cluster& cluster) : cluster_(cluster) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    ++rounds_;
    const FleetView& fleet = cluster_.fleet_view();
    EXPECT_EQ(fleet.at, now);
    EXPECT_EQ(fleet.host_count(), cluster_.host_count());
    for (int h = 0; h < fleet.host_count(); ++h) {
      EXPECT_TRUE(fleet.hosts[static_cast<std::size_t>(h)] ==
                  cluster_.host_view(h))
          << "host " << h << " at " << now;
    }
  }
  std::string name() const override { return "test.snapshot_probe"; }
  SimDuration tick_period() const override { return 0; }

  std::uint64_t rounds() const { return rounds_; }

 private:
  Cluster& cluster_;
  std::uint64_t rounds_ = 0;
};

TEST(FleetViewDeterminism, SnapshotIsCoherentEveryRoundUnderFaults) {
  ClusterConfig config;
  config.seed = 42;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < 3; ++i) {
    fleet.add_host(small_host());
  }
  fleet.enable_router(150.0);
  fleet.enable_recovery();
  Cluster& cluster = fleet.cluster();
  SnapshotProbe probe(cluster);
  cluster.add_component(&probe);
  server::WebConfig web;
  web.service_cpu = 5 * msec;
  for (int h = 0; h < 2; ++h) {
    const int pod = cluster.create_pod(
        h, {"web-" + std::to_string(h), res(1000, 1 * GiB)}, web_replica(web));
    EXPECT_TRUE(fleet.router()->add_replica(pod));
  }
  FaultPlan plan;
  plan.add({FaultEvent::Kind::kPodCrash, 200 * msec, -1, 0, 0, 0, 0});
  plan.add({FaultEvent::Kind::kHostCrash, 300 * msec, 1, -1, 500 * msec, 0, 0});
  fleet.enable_faults(plan);
  // A pod stopped mid-run leaves its host: the host row must lose it.
  const int hog = cluster.create_pod(2, {"hog", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 60 * sec));
  fleet.run(1 * sec);
  cluster.stop_pod(hog);
  fleet.run(1 * sec);
  EXPECT_GT(probe.rounds(), 0u);
  EXPECT_TRUE(fleet.injector()->done());
  EXPECT_EQ(cluster.host_crashes(), 1u);
}

TEST(FleetViewDeterminism, SteppedHostRowFollowsItsMemory) {
  // No component touches the hog's host, so between slack-window rolls only
  // the step itself can mark its row stale while free memory falls.
  Cluster cluster;
  cluster.add_host(small_host());
  cluster.add_host(small_host());
  SnapshotProbe probe(cluster);
  cluster.add_component(&probe);
  cluster.create_pod(0, {"hog", res(500, 1 * GiB)},
                     mem_hog_workload(512 * MiB, 256 * MiB));
  const Bytes free_before = cluster.host_view(0).free_memory;
  cluster.run_for(1 * sec);
  EXPECT_LT(cluster.host_view(0).free_memory, free_before);
  EXPECT_GT(probe.rounds(), 0u);
}

}  // namespace
}  // namespace arv::cluster
