// Chaos with every control loop closed: the chaos fleet plus HPA, VPA, and
// cluster autoscaler, replayed under random fault plans. The conservation
// identities and the byte-identical-trace contract must survive the
// autoscalers mutating replica counts, cgroup limits, and the active fleet
// concurrently with crashes and recovery. (The all-pods-running convergence
// check from the base suite does not apply: a scale-down legitimately stops
// pods.)
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/cluster/autoscale.h"
#include "src/cluster/faults.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/recovery.h"
#include "src/cluster/router.h"
#include "src/harness/scenario.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

int chaos_iterations() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  if (env == nullptr) {
    return 2;
  }
  const int iters = std::atoi(env);
  return iters > 0 ? iters : 2;
}

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host() {
  container::HostConfig config;
  config.cpus = 4;
  config.ram = 8 * GiB;
  return config;
}

constexpr int kHosts = 4;  // 3 active + 1 parked for the CA to grow into
constexpr SimDuration kHorizon = 3 * sec;
constexpr SimDuration kRunFor = 10 * sec;

std::string run_autoscaled_chaos(std::uint64_t chaos_seed, bool verify) {
  ClusterConfig config;
  config.seed = 42;
  config.enable_tracing = true;
  config.trace_interval = 10 * msec;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < kHosts; ++i) {
    fleet.add_host(small_host());
  }
  fleet.cluster().cordon_host(kHosts - 1, true);

  RouterConfig router;
  router.arrivals_per_sec = 900;
  router.max_retries = 2;
  fleet.enable_router(router);
  DetectorConfig detector;
  detector.period = 100 * msec;
  detector.miss_threshold = 2;
  RestartConfig restart;
  restart.period = 50 * msec;
  restart.backoff_base = 100 * msec;
  restart.backoff_cap = 2 * sec;
  fleet.enable_recovery(detector, restart);

  Cluster& cluster = fleet.cluster();
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 100;
  PodSpec replica;
  replica.name = "web";
  replica.resources = res(1000, 1 * GiB);
  replica.cpu_mode = CpuMode::kBurstable;
  HpaConfig hpa;
  hpa.period = 250 * msec;
  hpa.min_replicas = 2;
  hpa.max_replicas = 6;
  hpa.request_cpu = 6 * msec;
  hpa.up_stabilization = 250 * msec;
  hpa.down_stabilization = 2 * sec;
  fleet.enable_hpa(replica, web, hpa);
  for (int h = 0; h < 2; ++h) {
    PodSpec seed = replica;
    seed.name = "web-seed-" + std::to_string(h);
    const int pod = cluster.create_pod(h, seed, web_replica(web));
    EXPECT_TRUE(fleet.router()->add_replica(pod));
    fleet.hpa()->adopt(pod);
  }
  VpaConfig vpa;
  vpa.period = 100 * msec;
  vpa.window_rounds = 10;
  vpa.recommend_every = 5;
  fleet.enable_vpa(vpa);
  CaConfig ca;
  ca.period = 500 * msec;
  ca.min_hosts = 1;
  ca.band_rounds = 2;
  ca.cooldown = 1 * sec;
  fleet.enable_cluster_autoscaler(ca);

  cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 60 * sec));
  cluster.create_pod(1, {"resident", res(500, 2 * GiB)},
                     mem_hog_workload(1 * GiB, 4 * GiB));

  Rng chaos_rng(chaos_seed);
  ChaosOptions options;
  options.horizon = kHorizon;
  fleet.enable_faults(
      FaultPlan::random(chaos_rng, options, kHosts, cluster.pod_count()));
  fleet.run(kRunFor);

  if (verify) {
    const RequestRouter& r = *fleet.router();
    // Request conservation holds with replicas appearing (scale-up) and
    // disappearing (scale-down teardown harvests into Pod::archived).
    EXPECT_EQ(r.generated(), r.routed() + r.dropped() + r.unroutable());
    const server::RequestStats agg = r.aggregate();
    EXPECT_EQ(agg.arrived, r.attempts());
    EXPECT_EQ(agg.dropped, r.attempts() - r.routed());
    std::uint64_t lost = 0;
    for (int id = 0; id < cluster.pod_count(); ++id) {
      lost += cluster.pod(id).lost;
    }
    EXPECT_EQ(r.routed(), agg.completed + r.queued() + lost);

    // The per-host ledger stays a pure recount of pod assignments, however
    // many landings the three loops and the fault plan interleaved.
    for (int h = 0; h < cluster.host_count(); ++h) {
      std::int64_t millicpu = 0;
      Bytes memory = 0;
      int count = 0;
      for (int id = 0; id < cluster.pod_count(); ++id) {
        const Pod& pod = cluster.pod(id);
        if (pod.host == h) {
          millicpu += pod.spec.resources.request_millicpu;
          memory += pod.spec.resources.request_memory;
          ++count;
        }
      }
      const HostView view = cluster.host_view(h);
      EXPECT_EQ(view.requested_millicpu, millicpu) << "ledger drift on h" << h;
      EXPECT_EQ(view.requested_memory, memory) << "ledger drift on h" << h;
      EXPECT_EQ(cluster.pods_on(h), count) << "pod count drift on h" << h;
    }

    // The plan drained and every crashed machine rebooted. (Pods may be
    // legitimately stopped by scale-down, so no all-running check — the HPA
    // floor stands in for it.)
    EXPECT_TRUE(fleet.injector()->done());
    for (int h = 0; h < cluster.host_count(); ++h) {
      EXPECT_TRUE(cluster.host_up(h)) << "h" << h << " never rebooted";
    }
    EXPECT_GE(fleet.hpa()->replicas(), hpa.min_replicas);
    EXPECT_GE(cluster.active_hosts(), ca.min_hosts);
  }
  return cluster.trace()->to_csv();
}

TEST(AutoscaleChaos, InvariantsHoldAndTracesAreByteIdentical) {
  const int iters = chaos_iterations();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0xa5ca1e00u + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("autoscale chaos seed " + std::to_string(seed));
    const std::string first = run_autoscaled_chaos(seed, /*verify=*/true);
    const std::string second = run_autoscaled_chaos(seed, /*verify=*/false);
    ASSERT_EQ(first, second)
        << "autoscaler + chaos must replay byte-identically";
    ASSERT_FALSE(first.empty());
  }
}

}  // namespace
}  // namespace arv::cluster
