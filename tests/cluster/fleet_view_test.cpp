// FleetView battery (`ctest -L fleetview`): the shared cluster snapshot must
// be invisible in every observable. The same fleet — profile placement, all
// control loops on — replayed with the incremental row-copy refresh and with
// a forced full re-observe every round must produce byte-identical traces
// *and* byte-identical /sys/arv/fleet/ renders; the generation must advance
// only on content change; the files must render from state alone, never
// from read history; and a serial-phase probe pins that components always
// read a snapshot standing at cluster time.
#include "src/cluster/fleet_view.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(fleet.pod_count(), 0);
  EXPECT_EQ(fleet.hosts[1].index, 1);
  EXPECT_EQ(fleet.service_name(-1), "?");
}

TEST(FleetView, ClaimChargesTheHostAndAddsASyntheticRow) {
  FleetView fleet = FleetView::from_hosts({idle_view(0)});
  PodSpec spec;
  spec.name = "web-0";
  spec.service = "web";
  spec.resources = res(1000, 1 * GiB);
  fleet.claim(0, spec);
  const HostView& view = fleet.hosts[0];
  EXPECT_EQ(view.requested_millicpu, 1000);
  EXPECT_EQ(view.requested_memory, 1 * GiB);
  EXPECT_EQ(view.slack_millicpu, 3000);
  EXPECT_EQ(view.free_memory, 7 * GiB);
  EXPECT_EQ(view.pods, 1);
  ASSERT_EQ(fleet.pod_count(), 1);
  const PodRow& row = fleet.pods[0];
  EXPECT_EQ(row.id, -1);  // synthetic: not a real pod yet
  EXPECT_EQ(row.host, 0);
  EXPECT_TRUE(row.running);
  EXPECT_EQ(fleet.service_name(row.service), "web");
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

TEST(FleetView, SameContentIgnoresGenerationAndTimestamp) {
  FleetView a = FleetView::from_hosts({idle_view(0)});
  FleetView b = FleetView::from_hosts({idle_view(0)});
  b.generation = 42;
  b.at = 1 * sec;
  EXPECT_TRUE(a.same_content(b));
  b.hosts[0].slack_millicpu -= 1;
  EXPECT_FALSE(a.same_content(b));
}

TEST(FleetViewDiff, ReportsAddedRemovedAndMovedPods) {
  FleetView prev = FleetView::from_hosts({idle_view(0), idle_view(1)});
  FleetView cur = prev;
  auto row = [](int id, int host) {
    PodRow r;
    r.id = id;
    r.host = host;
    r.running = host >= 0;
    return r;
  };
  prev.pods = {row(0, 0), row(1, 0), row(2, 1)};
  prev.generation = 7;
  cur.pods = {row(0, 1), row(1, -1), row(2, 1), row(3, 0)};
  cur.generation = 9;
  const FleetViewDiff diff = cur.diff(prev);
  EXPECT_EQ(diff.from, 7u);
  EXPECT_EQ(diff.to, 9u);
  EXPECT_EQ(diff.added, std::vector<int>{3});
  EXPECT_EQ(diff.removed, std::vector<int>{1});
  ASSERT_EQ(diff.moved.size(), 1u);
  EXPECT_EQ(diff.moved[0], (PodMove{0, 0, 1}));
  EXPECT_TRUE(diff.hosts.empty()) << "zero-delta hosts must be omitted";
  EXPECT_FALSE(diff.empty());
  const std::string rendered = diff.render();
  EXPECT_NE(rendered.find("+pod3"), std::string::npos);
  EXPECT_NE(rendered.find("-pod1"), std::string::npos);
  EXPECT_NE(rendered.find("pod0 h0->h1"), std::string::npos);
}

TEST(FleetViewDiff, IdenticalSnapshotsDiffEmpty) {
  FleetView fleet = FleetView::from_hosts({idle_view(0)});
  EXPECT_TRUE(fleet.diff(fleet).empty());
}

// --- generation + published files -------------------------------------------

TEST(FleetViewGeneration, StableOnAnIdleFleet) {
  Cluster cluster;
  cluster.add_host(small_host());
  cluster.add_host(small_host());
  cluster.run_for(300 * msec);
  const std::uint64_t settled = cluster.fleet_generation();
  EXPECT_GT(settled, 0u);  // the first refresh did publish content
  cluster.run_for(500 * msec);
  // Nothing moved: window rolls re-observe rows but the content — and hence
  // the generation — must not change.
  EXPECT_EQ(cluster.fleet_generation(), settled);
}

TEST(FleetViewGeneration, AdvancesWhenAPodLands) {
  Cluster cluster;
  cluster.add_host(small_host());
  cluster.run_for(100 * msec);
  const std::uint64_t before = cluster.fleet_generation();
  cluster.create_pod(0, {"web", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 10 * sec));
  cluster.step();
  EXPECT_GT(cluster.fleet_generation(), before);
}

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
  // Three of four hosts never receive work; their rows must have been copied
  // forward, not re-observed, on (nearly) every refresh.
  EXPECT_GT(cluster.fleet_rows_reused(), 0u);
}

TEST(FleetViewFiles, RenderTheCurrentSnapshot) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.place_pod("effective", res(500, 512 * MiB),
                  cpu_hog_workload(1, 60 * sec));
  fleet.run(200 * msec);
  Cluster& cluster = fleet.cluster();
  const vfs::PseudoFs& fs = cluster.host(0).sysfs().host_fs();

  const auto generation = fs.read("/sys/arv/fleet/generation");
  ASSERT_TRUE(generation.has_value());
  EXPECT_EQ(*generation,
            std::to_string(cluster.fleet_generation()) + "\n");

  const auto hosts = fs.read("/sys/arv/fleet/hosts");
  ASSERT_TRUE(hosts.has_value());
  EXPECT_NE(hosts->find("generation"), std::string::npos);
  const auto pods = fs.read("/sys/arv/fleet/pods");
  ASSERT_TRUE(pods.has_value());
  EXPECT_NE(pods->find("pod0"), std::string::npos);

  // Re-reading without a generation change renders the same text.
  EXPECT_EQ(fs.read("/sys/arv/fleet/hosts"), hosts);
  EXPECT_EQ(fs.read("/sys/arv/fleet/pods"), pods);

  // After an idle stretch the file still matches the live generation.
  fleet.run(300 * msec);
  EXPECT_EQ(*fs.read("/sys/arv/fleet/generation"),
            std::to_string(cluster.fleet_generation()) + "\n");
}

TEST(FleetViewFiles, DiffFileReportsTheChangeThatMadeTheGeneration) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.run(100 * msec);
  const int pod = fleet.place_pod("effective", res(500, 512 * MiB),
                                  cpu_hog_workload(1, 60 * sec));
  ASSERT_GE(pod, 0);
  // Read right after the landing tick: the diff renders against the snapshot
  // published at the previous boundary, so this is the generation whose
  // change *is* the landing. (Later generations — window rolls, memory
  // charges — publish their own deltas and the landing scrolls out.)
  Cluster& cluster = fleet.cluster();
  cluster.step();
  const auto diff = cluster.host(0).sysfs().host_fs().read("/sys/arv/fleet/diff");
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("+pod" + std::to_string(pod)), std::string::npos);
}

TEST(FleetViewFiles, DiffIsAFunctionOfStateNotOfReadHistory) {
  // Two identical clusters reach the same state; only one has its diff read
  // along the way. An idle stretch later both must render the same diff:
  // the current snapshot against the previous tick boundary's, which after
  // ticks that changed nothing is "generation N -> N" with no rows.
  Cluster read_early;
  Cluster never_read;
  for (Cluster* cluster : {&read_early, &never_read}) {
    cluster->add_host(small_host());
    cluster->add_host(small_host());
    cluster->run_for(100 * msec);
    cluster->cordon_host(1, true);
    cluster->step();
  }
  const std::string path = "/sys/arv/fleet/diff";
  const auto early = read_early.host(0).sysfs().host_fs().read(path);
  ASSERT_TRUE(early.has_value());
  EXPECT_NE(early->find("cordon-flipped"), std::string::npos);
  for (Cluster* cluster : {&read_early, &never_read}) {
    cluster->run_for(50 * msec);
  }
  ASSERT_EQ(read_early.fleet_generation(), never_read.fleet_generation());
  const auto a = read_early.host(0).sysfs().host_fs().read(path);
  const auto b = never_read.host(0).sysfs().host_fs().read(path);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a, b);
  const std::string generation = std::to_string(never_read.fleet_generation());
  EXPECT_EQ(*b, "generation " + generation + " -> " + generation + "\n");
}

// --- incremental refresh vs full re-observe ---------------------------------

/// Forces a full row re-observe plus a mid-tick refresh every component
/// round. If copying rows of provably-unchanged hosts ever diverged from
/// re-observing them, a fleet running this spy would trace differently from
/// one without it.
class FullRebuildSpy final : public sim::TickComponent {
 public:
  explicit FullRebuildSpy(Cluster& cluster) : cluster_(cluster) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    cluster_.invalidate_fleet_view();
    const FleetView& fleet = cluster_.fleet_view();
    EXPECT_EQ(fleet.at, now);
    EXPECT_GE(fleet.generation, last_generation_);
    last_generation_ = fleet.generation;
  }
  std::string name() const override { return "test.full_rebuild_spy"; }
  SimDuration tick_period() const override { return 0; }

 private:
  Cluster& cluster_;
  std::uint64_t last_generation_ = 0;
};

struct SweepResult {
  std::string trace;
  std::string hosts_render;
  std::string pods_render;
  std::uint64_t generation = 0;
  std::uint64_t rows_reused = 0;
  std::uint64_t migrations = 0;
  std::uint64_t routed = 0;
};

SweepResult run_sweep_fleet(bool full_rebuild_every_round) {
  ClusterConfig config;
  config.seed = 42;
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
  fleet.run(2 * sec);

  SweepResult result;
  result.trace = cluster.trace()->to_csv();
  const FleetView& final_view = cluster.fleet_view();
  result.hosts_render = final_view.render_hosts();
  result.pods_render = final_view.render_pods();
  result.generation = cluster.fleet_generation();
  result.rows_reused = cluster.fleet_rows_reused();
  result.migrations = cluster.migrations();
  result.routed = fleet.router()->routed();
  return result;
}

TEST(FleetViewDeterminism, IncrementalRefreshEqualsFullRebuild) {
  // Same fleet, one run copying rows of provably-unchanged hosts, the other
  // forced to re-observe every row every round. Every observable — trace
  // included — must match; only the reuse counter itself may differ.
  const SweepResult incremental = run_sweep_fleet(false);
  const SweepResult full = run_sweep_fleet(true);
  EXPECT_EQ(incremental.trace, full.trace);
  EXPECT_EQ(incremental.hosts_render, full.hosts_render);
  EXPECT_EQ(incremental.pods_render, full.pods_render);
  EXPECT_EQ(incremental.generation, full.generation);
  EXPECT_EQ(incremental.migrations, full.migrations);
  EXPECT_EQ(incremental.routed, full.routed);
  // Both runs reuse rows at refresh boundaries (the exact counts differ —
  // the spy's mid-round rebuild absorbs profile invalidations the plain run
  // pays for at its next boundary); what matters is the path is exercised.
  EXPECT_GT(incremental.rows_reused, 0u);
  EXPECT_GT(full.rows_reused, 0u);
}

// --- serial-phase contract ----------------------------------------------------

/// Registered before the fault machinery: at every component round the
/// snapshot must stand exactly at cluster time, list every host, and carry a
/// well-formed CSR index — even right before a crash lands.
class SnapshotProbe final : public sim::TickComponent {
 public:
  explicit SnapshotProbe(Cluster& cluster) : cluster_(cluster) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    ++rounds_;
    const FleetView& fleet = cluster_.fleet_view();
    EXPECT_EQ(fleet.at, now);
    EXPECT_EQ(fleet.host_count(), cluster_.host_count());
    EXPECT_EQ(fleet.pod_count(), cluster_.pod_count());
    ASSERT_EQ(fleet.host_pod_offsets.size(),
              static_cast<std::size_t>(fleet.host_count() + 1));
    for (int h = 0; h < fleet.host_count(); ++h) {
      for (int i = fleet.host_pod_offsets[static_cast<std::size_t>(h)];
           i < fleet.host_pod_offsets[static_cast<std::size_t>(h) + 1]; ++i) {
        const int pod = fleet.host_pod_ids[static_cast<std::size_t>(i)];
        EXPECT_EQ(fleet.pods[static_cast<std::size_t>(pod)].host, h);
      }
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
  fleet.run(2 * sec);
  EXPECT_GT(probe.rounds(), 0u);
  EXPECT_TRUE(fleet.injector()->done());
  EXPECT_EQ(cluster.host_crashes(), 1u);
}

}  // namespace
}  // namespace arv::cluster
