// Fault recovery: what failures cost and how fast the control loops claw
// the fleet back.
//
// Three runs over the same 3-host fleet (router + failure detector +
// restart manager, three pinned web replicas plus background hogs):
//   baseline      - no faults; pins the availability/latency floor.
//   single_crash  - one host dies mid-run and reboots later; measures the
//                   detect->failover latency and the served fraction while
//                   degraded.
//   chaos         - a randomized FaultPlan (crashes, pod kills, memory
//                   pressure, monitor stalls); aggregate graceful-degradation
//                   counters.
//
// Results go to BENCH_faults.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/cluster/faults.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/recovery.h"
#include "src/cluster/router.h"
#include "src/harness/scenario.h"

namespace {

using namespace arv;
using namespace arv::bench;

constexpr int kHosts = 3;
constexpr double kRate = 900;  // requests/sec, fleet-wide
constexpr SimDuration kRun = 20 * units::sec;

struct FaultResult {
  std::string name;
  std::uint64_t generated = 0;
  double availability_pct = 0;  ///< routed / generated
  double p95_ms = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t restarts = 0;
  std::uint64_t failovers = 0;
  double failover_ms = -1;  ///< crash -> serving again; -1 when n/a
};

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

/// The reference fleet every run starts from. Replicas are pinned one per
/// host so a host crash always leaves survivors.
std::unique_ptr<harness::FleetScenario> make_fleet() {
  cluster::ClusterConfig config;
  config.seed = 42;
  auto fleet = std::make_unique<harness::FleetScenario>(config);
  for (int i = 0; i < kHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * units::GiB;
    fleet->add_host(host);
  }
  cluster::RouterConfig router;
  router.arrivals_per_sec = kRate;
  router.max_retries = 2;
  fleet->enable_router(router);
  cluster::DetectorConfig detector;
  detector.period = 100 * units::msec;
  detector.miss_threshold = 2;
  cluster::RestartConfig restart;
  restart.period = 50 * units::msec;
  restart.backoff_base = 100 * units::msec;
  restart.backoff_cap = 2 * units::sec;
  fleet->enable_recovery(detector, restart);
  server::WebConfig web;
  web.service_cpu = 6 * units::msec;
  web.max_queue = 100;
  for (int h = 0; h < kHosts; ++h) {
    const int pod = fleet->cluster().create_pod(
        h, {"web-" + std::to_string(h), res(1000, 1 * units::GiB)},
        cluster::web_replica(web));
    fleet->router()->add_replica(pod);
  }
  fleet->cluster().create_pod(0, {"hog", res(500, 512 * units::MiB)},
                              cluster::cpu_hog_workload(1, 60 * units::sec));
  fleet->cluster().create_pod(
      1, {"resident", res(500, 2 * units::GiB)},
      cluster::mem_hog_workload(1 * units::GiB, 4 * units::GiB));
  return fleet;
}

FaultResult harvest(const std::string& name, harness::FleetScenario& fleet) {
  const cluster::RequestRouter& router = *fleet.router();
  FaultResult result;
  result.name = name;
  result.generated = router.generated();
  result.availability_pct =
      result.generated == 0
          ? 100.0
          : 100.0 * static_cast<double>(router.routed()) /
                static_cast<double>(result.generated);
  result.p95_ms = router.aggregate().p95_ms();
  result.dropped = router.dropped();
  result.unroutable = router.unroutable();
  result.restarts = fleet.cluster().restarts();
  result.failovers = fleet.cluster().failovers();
  return result;
}

FaultResult run_baseline() {
  auto fleet = make_fleet();
  fleet->run(kRun);
  return harvest("baseline", *fleet);
}

FaultResult run_single_crash() {
  auto fleet = make_fleet();
  cluster::Cluster& cluster = fleet->cluster();
  fleet->run(5 * units::sec);

  // Kill the host under replica 0 and time the gap until that replica
  // serves again (detection + failover placement).
  const int victim_host = cluster.pod(0).host;
  cluster.crash_host(victim_host);
  const SimTime crashed = cluster.now();
  while (!cluster.pod(0).running() &&
         cluster.now() < crashed + 10 * units::sec) {
    cluster.step();
  }
  FaultResult interim;  // latency captured before the tail run
  interim.failover_ms = static_cast<double>(cluster.now() - crashed) /
                        static_cast<double>(units::msec);
  cluster.reboot_host(victim_host);
  if (cluster.now() < kRun) {
    fleet->run(kRun - cluster.now());  // out to the common horizon
  }
  FaultResult result = harvest("single_crash", *fleet);
  result.failover_ms = interim.failover_ms;
  return result;
}

FaultResult run_chaos() {
  auto fleet = make_fleet();
  Rng rng(0xfa017);
  cluster::ChaosOptions options;
  options.horizon = 10 * units::sec;
  options.host_crashes = 2;
  options.pod_crashes = 4;
  options.pressure_spikes = 2;
  options.monitor_stalls = 2;
  fleet->enable_faults(cluster::FaultPlan::random(
      rng, options, kHosts, fleet->cluster().pod_count()));
  fleet->run(kRun);
  return harvest("chaos", *fleet);
}

void write_json(const std::vector<FaultResult>& results) {
  const Json fleet = Json::object({{"hosts", kHosts},
                                   {"rate_per_sec", Json::fixed(kRate, 0)},
                                   {"run_s", kRun / units::sec}});
  Json runs = Json::array();
  for (const FaultResult& r : results) {
    runs.push(Json::object({{"name", r.name},
                            {"generated", r.generated},
                            {"availability_pct", Json::fixed(r.availability_pct, 3)},
                            {"p95_ms", Json::fixed(r.p95_ms, 2)},
                            {"dropped", r.dropped},
                            {"unroutable", r.unroutable},
                            {"restarts", r.restarts},
                            {"failovers", r.failovers},
                            {"failover_ms", Json::fixed(r.failover_ms, 1)}}));
  }
  write_bench_json("BENCH_faults.json", "fault_recovery",
                   Json::object({{"fleet", fleet}, {"runs", runs}}), Json::object());
}

}  // namespace

int main(int argc, char** argv) {
  print_header("Fault recovery: availability under failures",
               strf("%d hosts, %.0f req/s; host crash, pod crash-loops, "
                    "memory pressure, monitor stalls",
                    kHosts, kRate));
  std::vector<FaultResult> results;
  results.push_back(run_baseline());
  results.push_back(run_single_crash());
  results.push_back(run_chaos());
  {
    Table table({"run", "avail(%)", "p95(ms)", "dropped", "unroutable",
                 "restarts", "failovers", "failover(ms)"});
    for (const FaultResult& r : results) {
      table.add_row({r.name, strf("%.3f", r.availability_pct),
                     strf("%.2f", r.p95_ms), std::to_string(r.dropped),
                     std::to_string(r.unroutable),
                     std::to_string(r.restarts), std::to_string(r.failovers),
                     r.failover_ms < 0 ? "-" : strf("%.1f", r.failover_ms)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  std::printf(
      "expected: baseline serves ~100%%; single_crash recovers in well under "
      "a second and stays available; chaos degrades gracefully (refused, not "
      "lost) and converges.\n");

  write_json(results);
  arv::bench::register_case("fault_recovery/baseline", [] { run_baseline(); });
  arv::bench::register_case("fault_recovery/single_crash",
                            [] { run_single_crash(); });
  arv::bench::register_case("fault_recovery/chaos", [] { run_chaos(); });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
