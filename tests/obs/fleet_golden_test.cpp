// Golden-trace regression tests for the fleet layer.
//
// The Fig. 6/8/12 goldens pin one host. These two pin the cluster on top of
// it: placement, the request router, admission (retry budget + AIMD limits),
// SLO books, HPA/VPA/cluster autoscaler, faults, recovery and the rebalancer.
// Each golden holds three sections:
//   - the cluster trace CSV, sampled coarsely, minus the skip counter's own
//     column (the one series that legitimately differs with the idle-host
//     skip on or off);
//   - the final /sys/arv/fleet/{hosts,pods} and every other control file
//     under /sys/arv/ on the control host (per-container policy and trace
//     files excluded: they belong to the host layer the other goldens pin);
//   - the router, admission and SLO counters.
// Every scenario runs with the skip on and off against the same file, so the
// goldens also pin the skip's exactness.
//
// Regeneration (after an *intentional* fleet-behaviour change):
//   ARV_REGOLDEN=1 build/tests/arv_obs_tests --gtest_filter='GoldenTrace.Fleet*'
// then rerun without ARV_REGOLDEN (the skip-on and skip-off runs both write
// the file, so only a plain run shows they still agree) and inspect the
// golden diff in git before committing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/pod_workloads.h"
#include "src/harness/scenario.h"
#include "src/obs/golden.h"
#include "src/workloads/hogs.h"

namespace arv {
namespace {

using namespace arv::units;

std::string golden_path(const char* file) {
  return std::string(ARV_GOLDEN_DIR) + "/" + file;
}

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host(Bytes ram) {
  container::HostConfig config;
  config.cpus = 4;
  config.ram = ram;
  return config;
}

/// Drop the column named `column` from a CSV.
std::string strip_column(const std::string& csv, const std::string& column) {
  std::istringstream in(csv);
  std::string line;
  std::string out;
  std::size_t drop = std::string::npos;
  bool header = true;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string field;
    std::string joined;
    std::size_t i = 0;
    bool first = true;
    while (std::getline(fields, field, ',')) {
      if (header && field == column) {
        drop = i;
      }
      if (i++ == drop) {
        continue;
      }
      if (!first) {
        joined += ',';
      }
      joined += field;
      first = false;
    }
    header = false;
    out += joined;
    out += '\n';
  }
  return out;
}

/// Append one "name value" counter line.
void counter(std::string& out, const std::string& name, std::int64_t value) {
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

/// The golden text of a finished fleet run (see the file comment).
std::string render(harness::FleetScenario& fleet,
                   const std::vector<std::string>& tenants) {
  cluster::Cluster& cluster = fleet.cluster();
  std::string out = "# cluster trace\n";
  out += strip_column(cluster.trace()->to_csv(), "cluster.hosts_skipped");

  out += "# control files\n";
  const vfs::PseudoFs& fs =
      cluster.host(cluster::kControlHost).sysfs().host_fs();
  for (const std::string& path : fs.list("/sys/arv/")) {
    if (path.rfind("/sys/arv/policy/", 0) == 0 ||
        path.rfind("/sys/arv/trace/", 0) == 0) {
      continue;
    }
    out += "## " + path + "\n";
    out += fs.read(path).value_or("<unreadable>\n");
  }

  out += "# counters\n";
  std::vector<std::pair<std::string, cluster::RequestRouter*>> routers;
  if (fleet.router() != nullptr) {
    routers.emplace_back("default", fleet.router());
  }
  for (const std::string& tenant : tenants) {
    routers.emplace_back(tenant, fleet.tenant_router(tenant));
  }
  for (const auto& [name, router] : routers) {
    const std::string p = "router." + name + ".";
    const server::RequestStats stats = router->aggregate();
    counter(out, p + "generated", static_cast<std::int64_t>(router->generated()));
    counter(out, p + "routed", static_cast<std::int64_t>(router->routed()));
    counter(out, p + "unroutable",
            static_cast<std::int64_t>(router->unroutable()));
    counter(out, p + "dropped", static_cast<std::int64_t>(router->dropped()));
    counter(out, p + "attempts", static_cast<std::int64_t>(router->attempts()));
    counter(out, p + "retries", static_cast<std::int64_t>(router->retries()));
    counter(out, p + "queued", static_cast<std::int64_t>(router->queued()));
    counter(out, p + "completed", static_cast<std::int64_t>(stats.completed));
    counter(out, p + "p50_us", stats.latency_hist.percentile(50));
    counter(out, p + "p99_us", stats.latency_hist.percentile(99));
  }
  if (const cluster::AdmissionController* admission = fleet.admission()) {
    counter(out, "admission.retries_allowed",
            static_cast<std::int64_t>(admission->retries_allowed()));
    counter(out, "admission.retries_denied",
            static_cast<std::int64_t>(admission->retries_denied()));
    counter(out, "admission.retry_tokens_milli",
            admission->retry_tokens_milli());
    counter(out, "admission.queue_limit_total",
            admission->queue_limit_total());
  }
  if (const load::SloAccountant* slo = fleet.slo()) {
    for (const std::string& tenant : tenants) {
      const std::string p = "slo." + tenant + ".";
      counter(out, p + "availability_permille",
              slo->availability_permille(tenant));
      counter(out, p + "p99_us", slo->p99_us(tenant));
      counter(out, p + "budget_remaining_permille",
              slo->budget_remaining_permille(tenant));
      counter(out, p + "burn_rate_permille", slo->burn_rate_permille(tenant));
      counter(out, p + "p99_violations",
              static_cast<std::int64_t>(slo->p99_violations(tenant)));
    }
  }
  counter(out, "cluster.migrations",
          static_cast<std::int64_t>(cluster.migrations()));
  counter(out, "cluster.pod_crashes",
          static_cast<std::int64_t>(cluster.pod_crashes()));
  counter(out, "cluster.host_crashes",
          static_cast<std::int64_t>(cluster.host_crashes()));
  counter(out, "cluster.restarts",
          static_cast<std::int64_t>(cluster.restarts()));
  counter(out, "cluster.failovers",
          static_cast<std::int64_t>(cluster.failovers()));
  counter(out, "scheduler.unschedulable",
          static_cast<std::int64_t>(fleet.scheduler().unschedulable()));
  return out;
}

cluster::ClusterConfig traced_cluster(bool skip_idle_hosts) {
  cluster::ClusterConfig config;
  config.seed = 42;
  config.enable_tracing = true;
  config.trace_interval = 500 * msec;
  config.skip_idle_hosts = skip_idle_hosts;
  return config;
}

// --- day: a scaled-down million_user day ------------------------------------

struct DayOptions {
  bool skip_idle_hosts = true;
  /// Perturbation: enroll each tenant's seed replicas in reverse placement
  /// order. JSQ takes the first lowest queue in enrollment order, so this is
  /// JSQ taking the *last* lowest queue among the seeds.
  bool reverse_enrollment = false;
};

/// Four 4-CPU hosts, one parked for the cluster autoscaler; two tenants with
/// SLOs behind one admission controller; per-tenant HPA, VPA and the CA; a
/// diurnal trace whose flash crowd goes past the seed replicas' capacity.
std::string day_golden(const DayOptions& options) {
  constexpr int kHosts = 4;
  harness::FleetScenario fleet(traced_cluster(options.skip_idle_hosts));
  for (int i = 0; i < kHosts; ++i) {
    fleet.add_host(small_host(8 * GiB));
  }
  fleet.cluster().cordon_host(kHosts - 1, true);

  const std::vector<std::string> tenants = {"api", "batch"};
  for (const std::string& tenant : tenants) {
    fleet.add_tenant(tenant);
  }
  fleet.enable_admission();

  server::WebConfig web;
  web.service_cpu = 1 * msec;
  web.max_queue = 200;
  web.resize_interval = 500 * msec;
  cluster::PodSpec replica;
  replica.resources = res(1000, 512 * MiB);
  replica.resources.limit_millicpu = 1500;
  replica.view_policy = "paper";
  std::vector<std::vector<int>> seed_pods;
  for (const std::string& tenant : tenants) {
    const int seeds = tenant == "api" ? 3 : 2;
    std::vector<int>& pods = seed_pods.emplace_back();
    for (int i = 0; i < seeds; ++i) {
      cluster::PodSpec spec = replica;
      spec.service = tenant;
      const int pod = fleet.scheduler().place("effective", std::move(spec),
                                              cluster::web_replica(web));
      EXPECT_GE(pod, 0);
      pods.push_back(pod);
    }
    if (options.reverse_enrollment) {
      std::reverse(pods.begin(), pods.end());
    }
    for (const int pod : pods) {
      fleet.tenant_router(tenant)->add_replica(pod);
    }
  }

  load::TraceSpec spec;
  spec.duration = 8 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 6000;
  spec.diurnal_amplitude = 0.5;
  spec.diurnal_periods = 1;
  load::FlashCrowd crowd;
  crowd.start = 3 * sec;
  crowd.ramp = 500 * msec;
  crowd.hold = 1500 * msec;
  crowd.decay = 500 * msec;
  crowd.magnitude = 3.0;
  spec.flash_crowds.push_back(crowd);
  spec.process = load::ArrivalProcess::kPoisson;
  spec.seed = 7;
  spec.tenants.push_back({"api", 3.0, 200 * usec, 5 * msec, 1.3});
  spec.tenants.push_back({"batch", 0.5, 1 * msec, 8 * msec, 1.2});
  fleet.use_trace(load::compile(spec));

  load::SloTarget api_slo;
  api_slo.availability_permille = 999;
  api_slo.p99_target = 250 * msec;
  load::SloTarget batch_slo;
  batch_slo.availability_permille = 990;
  batch_slo.p99_target = 1 * sec;
  fleet.declare_slo("api", api_slo);
  fleet.declare_slo("batch", batch_slo);

  cluster::HpaConfig hpa;
  hpa.period = 100 * msec;
  hpa.min_replicas = 3;
  hpa.max_replicas = 8;
  hpa.request_cpu = web.service_cpu;
  hpa.max_surge = 3;
  hpa.down_stabilization = 2 * sec;
  fleet.enable_tenant_hpa("api", replica, web, hpa);
  hpa.min_replicas = 2;
  hpa.max_replicas = 4;
  hpa.request_cpu = 2 * msec;
  fleet.enable_tenant_hpa("batch", replica, web, hpa);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (const int pod : seed_pods[t]) {
      fleet.tenant_hpa(tenants[t])->adopt(pod);
    }
  }
  cluster::VpaConfig vpa;
  vpa.period = 500 * msec;
  fleet.enable_vpa(vpa);
  cluster::CaConfig ca;
  ca.period = 1 * sec;
  ca.min_hosts = kHosts - 1;
  ca.cooldown = 2 * sec;
  fleet.enable_cluster_autoscaler(ca);

  fleet.run(8 * sec);
  return render(fleet, tenants);
}

// --- sparse: many idle hosts, faults and the rebalancer ---------------------

struct SparseOptions {
  bool skip_idle_hosts = true;
  /// Perturbation: one idle host loses one tick of full-capacity slack to
  /// work no pod accounts for — what crediting a frozen host one tick less
  /// slack looks like from outside.
  bool steal_one_tick = false;
};

/// 64 hosts, web replicas placed through "effective" onto a few of them, a
/// CPU hog beside one replica for the rebalancer, a seeded random fault plan
/// with recovery, and steady open-loop traffic through the router.
std::string sparse_golden(const SparseOptions& options) {
  constexpr int kHosts = 64;
  harness::FleetScenario fleet(traced_cluster(options.skip_idle_hosts));
  for (int i = 0; i < kHosts; ++i) {
    fleet.add_host(small_host(16 * GiB));
  }
  cluster::RouterConfig router;
  router.arrivals_per_sec = 400;
  router.max_retries = 2;
  fleet.enable_router(router);
  cluster::DetectorConfig detector;
  detector.period = 100 * msec;
  detector.miss_threshold = 3;
  cluster::RestartConfig restart;
  restart.period = 50 * msec;
  restart.backoff_base = 100 * msec;
  restart.backoff_cap = 1 * sec;
  fleet.enable_recovery(detector, restart);
  fleet.enable_rebalancer();

  server::WebConfig web;
  web.service_cpu = 5 * msec;
  web.max_queue = 100;
  std::vector<int> web_pods;
  for (int i = 0; i < 4; ++i) {
    web_pods.push_back(fleet.place_web_pod(res(1000, 1 * GiB), web));
    EXPECT_GE(web_pods.back(), 0);
  }
  cluster::Cluster& cluster = fleet.cluster();
  const int hot_host = cluster.pod(web_pods.front()).host;
  cluster.create_pod(hot_host, {"hog", res(500, 512 * MiB)},
                     cluster::cpu_hog_workload(4, 60 * sec));

  std::unique_ptr<workloads::CpuHog> thief;
  if (options.steal_one_tick) {
    // A host no pod landed on: it is frozen from the first tick.
    int idle = 0;
    while (cluster.pods_on(idle) > 0) {
      ++idle;
    }
    container::ContainerConfig config;
    config.name = "thief";
    config.enable_resource_view = false;
    container::Container& target = cluster.runtime(idle).run(config);
    const int cpus = cluster.host(idle).cpus();
    thief = std::make_unique<workloads::CpuHog>(
        cluster.host(idle), target, cpus, cpus * cluster.config().tick);
  }

  // Faults target the busy hosts only (crashing an idle machine tests
  // nothing): the plan is drawn over busy-host slots, then mapped onto them.
  std::vector<int> busy;
  for (const int pod : web_pods) {
    const int host = cluster.pod(pod).host;
    if (std::find(busy.begin(), busy.end(), host) == busy.end()) {
      busy.push_back(host);
    }
  }
  Rng chaos(20190624);
  cluster::ChaosOptions faults;
  faults.horizon = 3 * sec;
  faults.host_crashes = 2;
  faults.pod_crashes = 2;
  faults.pressure_spikes = 1;
  faults.monitor_stalls = 1;
  cluster::FaultPlan plan = cluster::FaultPlan::random(
      chaos, faults, static_cast<int>(busy.size()), cluster.pod_count());
  for (cluster::FaultEvent& event : plan.events) {
    if (event.host >= 0) {
      event.host = busy[static_cast<std::size_t>(event.host)];
    }
  }
  fleet.enable_faults(std::move(plan));

  fleet.run(6 * sec);
  return render(fleet, {});
}

void expect_golden(const char* file, const std::string& actual) {
  const auto result = obs::compare_golden(golden_path(file), actual);
  EXPECT_TRUE(result.ok) << result.message;
}

void expect_perturbation_caught(const char* file, const std::string& actual,
                                const char* what) {
  if (obs::regenerate_requested()) {
    GTEST_SKIP() << "ARV_REGOLDEN set: would overwrite the golden with a "
                    "perturbed trace";
  }
  const auto result = obs::compare_golden(golden_path(file), actual);
  EXPECT_FALSE(result.ok) << "golden is insensitive to " << what;
  EXPECT_NE(result.message.find("line"), std::string::npos)
      << "failure must carry a line diff, got: " << result.message;
}

TEST(GoldenTrace, FleetDaySkipOn) {
  expect_golden("fleet_day.txt", day_golden({.skip_idle_hosts = true}));
}

TEST(GoldenTrace, FleetDaySkipOff) {
  expect_golden("fleet_day.txt", day_golden({.skip_idle_hosts = false}));
}

TEST(GoldenTrace, FleetSparseSkipOn) {
  expect_golden("fleet_sparse.txt", sparse_golden({.skip_idle_hosts = true}));
}

TEST(GoldenTrace, FleetSparseSkipOff) {
  expect_golden("fleet_sparse.txt", sparse_golden({.skip_idle_hosts = false}));
}

// --- perturbation: the fleet goldens must catch one-tick, one-tie shifts ----

TEST(GoldenTrace, PerturbedFrozenHostSlackFailsLoudly) {
  expect_perturbation_caught("fleet_sparse.txt",
                             sparse_golden({.steal_one_tick = true}),
                             "one tick of slack on a frozen host");
}

TEST(GoldenTrace, PerturbedJsqTieBreakFailsLoudly) {
  expect_perturbation_caught("fleet_day.txt",
                             day_golden({.reverse_enrollment = true}),
                             "which of equally short queues JSQ picks");
}

}  // namespace
}  // namespace arv
