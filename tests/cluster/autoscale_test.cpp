// Closed-loop autoscaling on effective views: the HorizontalAutoscaler's
// demand tracking (up under load, down after the lull, stabilization and
// surge clamps), the VerticalRecommender's live cgroup rewrites (quota-capped
// vs burstable), the ClusterAutoscaler's hysteresis-banded add/drain, and
// the /sys/arv control-plane files. The byte-identical replay with all three
// loops enabled is pinned under fault chaos by autoscale_chaos_test.cpp.
#include "src/cluster/autoscale.h"

#include <gtest/gtest.h>

#include <string>

#include "src/cgroup/cgroup.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/router.h"
#include "src/container/host.h"
#include "src/harness/scenario.h"
#include "src/vfs/virtual_sysfs.h"

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

PodSpec web_template(CpuMode mode = CpuMode::kQuotaCapped) {
  PodSpec spec;
  spec.name = "web";
  spec.resources = res(1000, 256 * MiB);
  spec.cpu_mode = mode;
  return spec;
}

server::WebConfig web_config() {
  server::WebConfig web;
  web.service_cpu = 4 * msec;
  web.max_queue = 1000;
  return web;
}

/// Fleet with a router at `rate`, one seed replica on h0 adopted by an HPA
/// configured for fast tests (200 ms rounds, 1 s scale-down window).
struct HpaFleet {
  explicit HpaFleet(double rate, HpaConfig config = fast_config(),
                    int hosts = 4)
      : fleet() {
    for (int i = 0; i < hosts; ++i) {
      fleet.add_host(small_host(4, 8 * GiB));
    }
    fleet.enable_router(rate);
    seed = fleet.cluster().create_pod(0, web_template(), web_replica(web_config()));
    EXPECT_TRUE(fleet.router()->add_replica(seed));
    fleet.enable_hpa(web_template(), web_config(), config);
    fleet.hpa()->adopt(seed);
  }

  static HpaConfig fast_config() {
    HpaConfig config;
    config.period = 200 * msec;
    config.min_replicas = 1;
    config.max_replicas = 8;
    config.request_cpu = 4 * msec;  // matches web_config().service_cpu
    config.up_stabilization = 200 * msec;
    config.down_stabilization = 1 * sec;
    return config;
  }

  harness::FleetScenario fleet;
  int seed = -1;
};

TEST(Hpa, TracksDiurnalDemandUpAndBackDown) {
  HpaFleet f(/*rate=*/40);
  HorizontalAutoscaler& hpa = *f.fleet.hpa();

  // Quiet phase: one replica absorbs 40/s * 4ms = 16% of one core.
  f.fleet.run(1 * sec);
  EXPECT_EQ(hpa.replicas(), 1);
  EXPECT_EQ(hpa.scale_ups(), 0u);

  // Peak: 3000/s * 4ms = 12 cores of demand — far beyond one replica's
  // effective capacity, whatever its view converged to.
  f.fleet.router()->set_rate(3000);
  f.fleet.run(2 * sec);
  EXPECT_GE(hpa.replicas(), 3);
  EXPECT_GE(hpa.scale_ups(), 2u);
  const int peak = hpa.replicas();

  // Lull: demand collapses; after the scale-down window drains the peak
  // recommendations, replicas walk back down (kMaxScaleDown per round).
  f.fleet.router()->set_rate(40);
  f.fleet.run(4 * sec);
  EXPECT_LT(hpa.replicas(), peak);
  EXPECT_LE(hpa.replicas(), 2);
  EXPECT_GE(hpa.scale_downs(), 1u);
  // Stopped replicas stay enrolled; the rotation never shrinks.
  EXPECT_EQ(f.fleet.router()->replica_count(), 1 + static_cast<int>(hpa.scale_ups()));
}

TEST(Hpa, ClampsAtMaxReplicas) {
  HpaConfig config = HpaFleet::fast_config();
  config.max_replicas = 3;
  config.up_stabilization = 0;
  HpaFleet f(/*rate=*/20000, config);
  f.fleet.run(2 * sec);
  EXPECT_EQ(f.fleet.hpa()->replicas(), 3);
  EXPECT_EQ(f.fleet.hpa()->desired(), 3);  // the clamp, not the raw demand
}

TEST(Hpa, UpStabilizationHoldsBriefBreaches) {
  HpaConfig config = HpaFleet::fast_config();
  config.up_stabilization = 5 * sec;  // longer than the whole run
  HpaFleet f(/*rate=*/20000, config);
  f.fleet.run(1500 * msec);
  EXPECT_EQ(f.fleet.hpa()->replicas(), 1);
  EXPECT_EQ(f.fleet.hpa()->scale_ups(), 0u);
  EXPECT_GT(f.fleet.hpa()->held(), 0u);
  EXPECT_GT(f.fleet.hpa()->desired(), 1);  // it wanted to, and was held
}

TEST(Hpa, DefersWhenNoHostHasEffectiveSlack) {
  HpaConfig config = HpaFleet::fast_config();
  config.up_stabilization = 0;
  HpaFleet f(/*rate=*/20000, config, /*hosts=*/1);
  // Saturate the only host: the effective strategy sees no observed slack,
  // so every wanted scale-up is deferred, not placed.
  f.fleet.cluster().create_pod(0, {"hog", res(500, 256 * MiB)},
                               cpu_hog_workload(4, 600 * sec));
  f.fleet.run(2 * sec);
  EXPECT_GT(f.fleet.hpa()->deferred(), 0u);
  EXPECT_EQ(f.fleet.hpa()->replicas(), 1);
}

TEST(Vpa, RewritesQuotaCappedPodFromObservedUsage) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host(4, 8 * GiB));
  VpaConfig config;
  config.window_rounds = 10;
  config.recommend_every = 2;
  fleet.enable_vpa(config);

  // Declared limit 4000m (quota 400 ms / 100 ms period); actual usage a
  // steady 2 cores. The recommender must shrink the quota toward observed
  // p95 and raise the request-derived shares toward observed p50.
  PodSpec spec;
  spec.name = "sized";
  spec.resources = res(500, 256 * MiB);
  spec.resources.limit_millicpu = 4000;
  Cluster& cluster = fleet.cluster();
  const int pod =
      cluster.create_pod(0, spec, cpu_hog_workload(2, 600 * sec));
  const cgroup::CgroupId cg = cluster.pod(pod).container->cgroup();
  EXPECT_EQ(cluster.host(0).cgroups().get(cg).cpu().cfs_quota_us, 400'000);

  fleet.run(3 * sec);
  VerticalRecommender& vpa = *fleet.vpa();
  EXPECT_GT(vpa.rewrites(), 0u);
  const auto& cpu = cluster.host(0).cgroups().get(cg).cpu();
  // ~2000m observed p95 * 1.2 margin = ~240 ms; well under the declared cap
  // and comfortably above actual burn (no self-inflicted throttling).
  EXPECT_LT(cpu.cfs_quota_us, 400'000);
  EXPECT_GT(cpu.cfs_quota_us, 200'000);
  // Shares follow observed p50 (~2000m -> ~2048), up from the declared
  // request's 512.
  EXPECT_GT(cpu.shares, 1024);
  // A hog that commits nothing gets its memory capped near the floor.
  EXPECT_NE(cluster.host(0).cgroups().get(cg).mem().limit_in_bytes,
            kUnlimited);
  // Steady usage => later recommendations sit inside the min_change band.
  EXPECT_GT(vpa.held(), 0u);
}

TEST(Vpa, BurstablePodNeverGetsAQuota) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.add_host(small_host(4, 8 * GiB));
  VpaConfig config;
  config.window_rounds = 10;
  config.recommend_every = 2;
  fleet.enable_vpa(config);

  PodSpec spec;
  spec.name = "bursty";
  spec.resources = res(500, 256 * MiB);
  spec.resources.limit_millicpu = 4000;  // would mean a 400 ms quota...
  spec.cpu_mode = CpuMode::kBurstable;   // ...but burstable strips it
  Cluster& cluster = fleet.cluster();
  const int pod =
      cluster.create_pod(0, spec, cpu_hog_workload(2, 600 * sec));
  const auto quota_of = [&](int host) {
    return cluster.host(host)
        .cgroups()
        .get(cluster.pod(pod).container->cgroup())
        .cpu()
        .cfs_quota_us;
  };
  EXPECT_EQ(quota_of(0), kUnlimited);

  fleet.run(3 * sec);
  EXPECT_EQ(quota_of(0), kUnlimited) << "VPA must not quota a burstable pod";
  EXPECT_GT(fleet.vpa()->rewrites(), 0u);  // shares/memory still managed
  EXPECT_GT(quota_of(0) == kUnlimited ? fleet.vpa()->cpu_raised() : 0u, 0u);

  // The mode is part of the spec, so it survives a re-landing.
  cluster.migrate_pod(pod, 1);
  fleet.run(1 * sec);
  ASSERT_TRUE(cluster.pod(pod).running());
  ASSERT_EQ(cluster.pod(pod).host, 1);
  EXPECT_EQ(quota_of(1), kUnlimited);
}

CaConfig fast_ca() {
  CaConfig config;
  config.period = 100 * msec;
  config.band_rounds = 2;
  config.cooldown = 300 * msec;
  return config;
}

TEST(Ca, UncordonsParkedHostWhenSlackCollapses) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.cluster().cordon_host(1, true);  // parked spare
  CaConfig config = fast_ca();
  config.cooldown = 30 * sec;  // one decision is the test; no flap-back
  fleet.enable_cluster_autoscaler(config);
  // Saturate the only active host.
  fleet.cluster().create_pod(0, {"hog", res(500, 256 * MiB)},
                             cpu_hog_workload(4, 600 * sec));

  fleet.run(2 * sec);
  ClusterAutoscaler& ca = *fleet.cluster_autoscaler();
  EXPECT_EQ(ca.hosts_added(), 1u);
  EXPECT_FALSE(fleet.cluster().host_cordoned(1));
  EXPECT_EQ(fleet.cluster().active_hosts(), 2);
  EXPECT_LT(ca.slack_permille(), 1000);
}

TEST(Ca, DrainsIdleFleetToMinHostsThroughMigration) {
  harness::FleetScenario fleet;
  for (int i = 0; i < 3; ++i) {
    fleet.add_host(small_host(4, 8 * GiB));
  }
  CaConfig config = fast_ca();
  config.min_hosts = 2;
  fleet.enable_cluster_autoscaler(config);
  // A nearly idle fleet (each hog burns 100 ms total, then sleeps). h2 ties
  // h1 on pod count; the highest index drains first, h0 (the control-plane
  // host) last.
  Cluster& cluster = fleet.cluster();
  cluster.create_pod(0, {"a", res(200, 128 * MiB)},
                     cpu_hog_workload(1, 100 * msec));
  cluster.create_pod(0, {"b", res(200, 128 * MiB)},
                     cpu_hog_workload(1, 100 * msec));
  cluster.create_pod(1, {"c", res(200, 128 * MiB)},
                     cpu_hog_workload(1, 100 * msec));
  const int evictee = cluster.create_pod(2, {"d", res(200, 128 * MiB)},
                                         cpu_hog_workload(1, 100 * msec));

  fleet.run(3 * sec);
  ClusterAutoscaler& ca = *fleet.cluster_autoscaler();
  EXPECT_EQ(ca.hosts_drained(), 1u);
  EXPECT_GE(ca.drain_migrations(), 1u);
  EXPECT_TRUE(cluster.host_cordoned(2));
  EXPECT_EQ(cluster.pods_on(2), 0);
  EXPECT_TRUE(cluster.pod(evictee).running());
  EXPECT_NE(cluster.pod(evictee).host, 2);
  // min_hosts floors the shrink: h0 and h1 stay, however idle.
  EXPECT_EQ(cluster.active_hosts(), 2);
  EXPECT_EQ(ca.draining(), -1);
}

TEST(ControlPlane, SysArvFilesExposeAutoscalerState) {
  harness::FleetScenario fleet;
  for (int i = 0; i < 2; ++i) {
    fleet.add_host(small_host(4, 8 * GiB));
  }
  fleet.enable_router(500);
  const int seed = fleet.cluster().create_pod(0, web_template(),
                                              web_replica(web_config()));
  ASSERT_TRUE(fleet.router()->add_replica(seed));
  fleet.enable_hpa(web_template(), web_config(), HpaFleet::fast_config());
  fleet.hpa()->adopt(seed);
  fleet.enable_vpa();
  fleet.enable_cluster_autoscaler();
  fleet.run(1 * sec);

  const vfs::PseudoFs& fs = fleet.cluster().host(0).sysfs().host_fs();
  const auto read_int = [&](const std::string& path) {
    const auto contents = fs.read(path);
    EXPECT_TRUE(contents.has_value()) << path;
    return contents ? std::stoll(*contents) : -1;
  };
  EXPECT_GE(read_int("/sys/arv/autoscale/web/replicas"), 1);
  EXPECT_GE(read_int("/sys/arv/autoscale/web/desired"), 1);
  EXPECT_GE(read_int("/sys/arv/autoscale/web/scale_ups"), 0);
  EXPECT_GE(read_int("/sys/arv/autoscale/web/scale_downs"), 0);
  EXPECT_GE(read_int("/sys/arv/vpa/rewrites"), 0);
  EXPECT_EQ(read_int("/sys/arv/autoscale/cluster/hosts"), 2);
  EXPECT_GE(read_int("/sys/arv/autoscale/cluster/slack_permille"), 0);
}

}  // namespace
}  // namespace arv::cluster
