// Chaos suite: randomized fault plans replayed against a full fleet (router,
// detector, restart manager, and the whole overload control plane —
// admission, retry budget, adaptive limits) must (a) be byte-identical under
// the same seed, (b) conserve every request through the extended front-door
// identities, (c) keep the pod ledger consistent, and (d) converge back to a
// fully-running fleet once the plan drains, with (e) the touch contract
// holding after every step. Iteration
// count scales with ARV_CHAOS_ITERS (CI runs hundreds; the default keeps
// local runs fast).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/cluster/faults.h"
#include "src/cluster/overload.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/recovery.h"
#include "src/cluster/router.h"
#include "src/harness/scenario.h"
#include "tests/testing/touch_contract.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

int chaos_iterations() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  if (env == nullptr) {
    return 3;
  }
  const int iters = std::atoi(env);
  return iters > 0 ? iters : 3;
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

constexpr int kHosts = 3;
constexpr SimDuration kHorizon = 3 * sec;
constexpr SimDuration kRunFor = 10 * sec;  // horizon + recovery tail

/// Build the reference fleet, replay a random plan drawn from `chaos_seed`,
/// optionally verify the invariants, and return the cluster trace CSV.
std::string run_chaos(std::uint64_t chaos_seed, bool verify) {
  ClusterConfig config;
  config.seed = 42;
  config.enable_tracing = true;
  config.trace_interval = 10 * msec;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < kHosts; ++i) {
    fleet.add_host(small_host());
  }
  RouterConfig router;
  // Overloads the fleet only while replicas are down: three absorb the
  // stream, a lone survivor cannot — that is what exercises the refusal,
  // retry and drop paths under chaos.
  router.arrivals_per_sec = 900;
  router.max_retries = 2;
  fleet.enable_router(router);
  // Both overload guards armed: the conservation identities below must hold
  // with the retry budget and AIMD limits active under fault chaos.
  fleet.enable_admission();
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
  for (int h = 0; h < kHosts; ++h) {
    const int pod = cluster.create_pod(
        h, {"web-" + std::to_string(h), res(1000, 1 * GiB)},
        web_replica(web));
    EXPECT_TRUE(fleet.router()->add_replica(pod));
  }
  cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 60 * sec));
  cluster.create_pod(1, {"resident", res(500, 2 * GiB)},
                     mem_hog_workload(1 * GiB, 4 * GiB));

  Rng chaos_rng(chaos_seed);
  ChaosOptions options;
  options.horizon = kHorizon;
  fleet.enable_faults(
      FaultPlan::random(chaos_rng, options, kHosts, cluster.pod_count()));
  if (verify) {
    EXPECT_TRUE(testing::RunCheckingTouchContract(cluster, kRunFor));
  } else {
    fleet.run(kRunFor);
  }

  if (verify) {
    const RequestRouter& r = *fleet.router();
    // --- request conservation: every generated request has exactly one
    // disposition.
    EXPECT_EQ(r.generated(), r.routed() + r.dropped() + r.unroutable());
    // --- attempt-level: every injection attempt landed in some sink's
    // arrived counter (live or archived), refusals in its dropped counter.
    const server::RequestStats agg = r.aggregate();
    EXPECT_EQ(agg.arrived, r.attempts());
    EXPECT_EQ(agg.dropped, r.attempts() - r.routed());
    // --- routed requests either completed, are still queued, or died with
    // a torn-down sink (migration/crash/stop) — none vanish.
    std::uint64_t lost = 0;
    for (int id = 0; id < cluster.pod_count(); ++id) {
      lost += cluster.pod(id).lost;
    }
    EXPECT_EQ(r.routed(), agg.completed + r.queued() + lost);

    // --- pod ledger consistency: the per-host declared-request ledger must
    // equal a recount over pod assignments, whatever crashed or moved.
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

    // --- post-fault convergence: the plan drained, every host rebooted,
    // and recovery brought every pod back up.
    EXPECT_TRUE(fleet.injector()->done());
    for (int h = 0; h < cluster.host_count(); ++h) {
      EXPECT_TRUE(cluster.host_up(h)) << "h" << h << " never rebooted";
    }
    for (int id = 0; id < cluster.pod_count(); ++id) {
      EXPECT_TRUE(cluster.pod(id).running())
          << "pod " << id << " not recovered " << (kRunFor - kHorizon) / sec
          << "s after the last fault";
    }
    // Every pod crash was answered by a restart or a failover.
    if (cluster.pod_crashes() + cluster.host_crashes() > 0) {
      EXPECT_GT(cluster.restarts() + cluster.failovers(), 0u);
    }
  }
  return cluster.trace()->to_csv();
}

TEST(Chaos, InvariantsHoldAndTracesAreByteIdentical) {
  const int iters = chaos_iterations();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0xc7a05000u + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    // The first run verifies the invariants, the replay does not: trace
    // equality pins the seed-replay contract under full fault chaos and
    // shows the verification is observation-only.
    const std::string first = run_chaos(seed, /*verify=*/true);
    const std::string second = run_chaos(seed, /*verify=*/false);
    ASSERT_EQ(first, second)
        << "same seed + same plan must replay byte-identically";
    ASSERT_FALSE(first.empty());
  }
}

TEST(Chaos, DifferentSeedsProduceDifferentPlans) {
  const std::string a = run_chaos(1, /*verify=*/false);
  const std::string b = run_chaos(2, /*verify=*/false);
  EXPECT_NE(a, b) << "chaos plans should vary with the seed";
}

// A fault-free run through the same harness pins the baseline the chaos
// iterations degrade from: nothing dropped, nothing unroutable, no recovery
// activity, all replicas healthy.
TEST(Chaos, FaultFreeBaselineIsClean) {
  ClusterConfig config;
  config.seed = 42;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < kHosts; ++i) {
    fleet.add_host(small_host());
  }
  RouterConfig router;
  router.arrivals_per_sec = 900;
  fleet.enable_router(router);
  fleet.enable_recovery();
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 100;
  for (int h = 0; h < kHosts; ++h) {
    const int pod = fleet.cluster().create_pod(
        h, {"web-" + std::to_string(h), res(1000, 1 * GiB)},
        web_replica(web));
    ASSERT_TRUE(fleet.router()->add_replica(pod));
  }
  fleet.run(5 * sec);
  EXPECT_EQ(fleet.router()->unroutable(), 0u);
  EXPECT_EQ(fleet.router()->dropped(), 0u);
  EXPECT_EQ(fleet.router()->retries(), 0u);
  EXPECT_EQ(fleet.cluster().restarts(), 0u);
  EXPECT_EQ(fleet.cluster().failovers(), 0u);
  EXPECT_EQ(fleet.detector()->declarations(), 0u);
  const server::RequestStats agg = fleet.router()->aggregate();
  EXPECT_EQ(agg.arrived, fleet.router()->routed());
  EXPECT_GT(agg.completed, 0u);
}

}  // namespace
}  // namespace arv::cluster
