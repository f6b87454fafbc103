// Cluster placement: declared-requests vs effective-capacity scheduling on
// an overcommitted fleet, plus the skewed-fleet rebalance scenario.
//
// The fleet is the paper's semantic gap at cluster scale: twelve
// single-threaded web replicas each *request* 2 CPUs ("to be safe") on a
// 4-host x 4-CPU fleet — requests sum to 24 CPUs against 16 of capacity,
// while the replicas' actual burn is ~1 CPU each. The "requests" strategy
// believes the requests, runs out of declared room after 8 replicas, and
// leaves a third of the fleet's serving capacity unscheduled; the
// "effective" strategy watches observed slack and places all twelve. Under
// a load the full replica set absorbs comfortably, the baseline saturates:
// lower throughput, blown-up p95.
//
// Results go to BENCH_cluster.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/cluster/pod_workloads.h"
#include "src/util/stats.h"

namespace {

using namespace arv;
using namespace arv::bench;

constexpr int kHosts = 4;
constexpr int kHostCpus = 4;
constexpr int kReplicas = 12;
constexpr double kFleetRate = 2400;           // requests/sec, fleet-wide
constexpr SimDuration kRun = 30 * units::sec;

struct PlacementResult {
  std::string strategy;
  int placed = 0;
  int unschedulable = 0;
  double throughput = 0;  ///< completed requests/sec over the run
  double p95_ms = 0;
  std::uint64_t dropped = 0;     ///< router + replica queue drops
  std::uint64_t unroutable = 0;  ///< arrivals with no live replica
};

container::K8sResources replica_requests() {
  container::K8sResources r;
  r.request_millicpu = 2000;  // operator "safety margin": 2x the real burn
  r.request_memory = 1 * units::GiB;
  return r;
}

PlacementResult run_overcommitted(const std::string& strategy) {
  cluster::ClusterConfig config;
  config.seed = 42;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < kHosts; ++i) {
    container::HostConfig host;
    host.cpus = kHostCpus;
    host.ram = 16 * units::GiB;
    fleet.add_host(host);
  }
  fleet.enable_router(kFleetRate);
  server::WebConfig web;
  web.sizing = server::Sizing::kFixed;
  web.fixed_workers = 1;  // single-threaded replica (its real capacity)
  web.service_cpu = 4 * units::msec;
  PlacementResult result;
  result.strategy = strategy;
  for (int i = 0; i < kReplicas; ++i) {
    if (fleet.place_web_pod(strategy, replica_requests(), web) >= 0) {
      ++result.placed;
    }
  }
  result.unschedulable = static_cast<int>(fleet.scheduler().unschedulable());
  fleet.run(kRun);

  const server::RequestStats stats = fleet.router()->aggregate();
  result.throughput = stats.throughput_per_sec(kRun);
  result.p95_ms = stats.p95_ms();
  result.unroutable = fleet.router()->unroutable();
  result.dropped = fleet.router()->dropped();
  for (int id = 0; id < fleet.cluster().pod_count(); ++id) {
    const cluster::Pod& pod = fleet.cluster().pod(id);
    if (pod.running() && pod.workload != nullptr) {
      if (const auto* sink = pod.workload->request_sink()) {
        result.dropped += sink->dropped();
      }
    }
  }
  return result;
}

struct RebalanceResult {
  std::uint64_t migrations = 0;
  int pods_h0 = 0;
  int pods_h1 = 0;
  std::int64_t final_slack_h0 = 0;  ///< milli-CPUs of observed idle
  std::int64_t final_slack_h1 = 0;
};

RebalanceResult run_skewed_rebalance() {
  // Everything lands on host 0 (tiny declared requests keep it "emptiest"
  // for MostAllocated is wrong — they keep it *fullest*), host 1 idles; the
  // rebalancer must spread the hogs without thrashing.
  harness::FleetScenario fleet;
  for (int i = 0; i < 2; ++i) {
    container::HostConfig host;
    host.cpus = kHostCpus;
    host.ram = 16 * units::GiB;
    fleet.add_host(host);
  }
  fleet.enable_rebalancer();
  container::K8sResources tiny;
  tiny.request_millicpu = 100;
  tiny.request_memory = 256 * units::MiB;
  for (int i = 0; i < 3; ++i) {
    // "requests" packs every hog onto the same (fullest) host.
    fleet.place_pod("requests", tiny,
                    cluster::cpu_hog_workload(kHostCpus, 10000 * units::sec));
  }
  fleet.run(kRun);
  RebalanceResult result;
  result.migrations = fleet.rebalancer()->migrations();
  result.pods_h0 = fleet.cluster().pods_on(0);
  result.pods_h1 = fleet.cluster().pods_on(1);
  result.final_slack_h0 = fleet.cluster().host_view(0).slack_millicpu;
  result.final_slack_h1 = fleet.cluster().host_view(1).slack_millicpu;
  return result;
}

void write_json(const std::vector<PlacementResult>& placement,
                const RebalanceResult& rebalance) {
  const Json fleet = Json::object({{"hosts", kHosts},
                                   {"cpus_per_host", kHostCpus},
                                   {"replicas", kReplicas},
                                   {"rate_per_sec", Json::fixed(kFleetRate, 0)}});
  Json strategies = Json::array();
  for (const PlacementResult& r : placement) {
    strategies.push(Json::object({{"strategy", r.strategy},
                                  {"placed", r.placed},
                                  {"unschedulable", r.unschedulable},
                                  {"throughput_per_sec", Json::fixed(r.throughput, 1)},
                                  {"p95_ms", Json::fixed(r.p95_ms, 2)},
                                  {"dropped", r.dropped},
                                  {"unroutable", r.unroutable}}));
  }
  const Json rebalanced =
      Json::object({{"migrations", rebalance.migrations},
                    {"pods_h0", rebalance.pods_h0},
                    {"pods_h1", rebalance.pods_h1},
                    {"final_slack_h0_millicpu", rebalance.final_slack_h0},
                    {"final_slack_h1_millicpu", rebalance.final_slack_h1}});
  write_bench_json(
      "BENCH_cluster.json", "cluster_placement",
      Json::object(
          {{"fleet", fleet}, {"strategies", strategies}, {"rebalance", rebalanced}}),
      Json::object());
}

}  // namespace

int main(int argc, char** argv) {
  print_header("Cluster placement: requests vs effective",
               strf("%d web replicas requesting 2 CPUs each on a %dx%d-CPU "
                    "fleet, %.0f req/s",
                    kReplicas, kHosts, kHostCpus, kFleetRate));
  std::vector<PlacementResult> placement;
  for (const std::string strategy : {"requests", "effective"}) {
    placement.push_back(run_overcommitted(strategy));
  }
  {
    Table table({"strategy", "placed", "unsched", "throughput/s", "p95(ms)",
                 "dropped", "unroutable"});
    for (const PlacementResult& r : placement) {
      table.add_row({r.strategy, std::to_string(r.placed),
                     std::to_string(r.unschedulable),
                     strf("%.1f", r.throughput), strf("%.2f", r.p95_ms),
                     std::to_string(r.dropped), std::to_string(r.unroutable)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  std::printf(
      "expected: \"effective\" places all %d replicas and beats \"requests\" "
      "on throughput and p95.\n",
      kReplicas);

  print_header("Cluster rebalance: skewed fleet",
               "3 four-thread hogs packed on host 0 of 2; rebalancer spreads "
               "them without thrashing");
  const RebalanceResult rebalance = run_skewed_rebalance();
  {
    Table table({"migrations", "pods h0", "pods h1", "slack h0 (mcpu)",
                 "slack h1 (mcpu)"});
    table.add_row({std::to_string(rebalance.migrations),
                   std::to_string(rebalance.pods_h0),
                   std::to_string(rebalance.pods_h1),
                   std::to_string(rebalance.final_slack_h0),
                   std::to_string(rebalance.final_slack_h1)});
    std::fputs(table.to_ascii().c_str(), stdout);
  }

  write_json(placement, rebalance);
  for (const std::string strategy : {"requests", "effective"}) {
    arv::bench::register_case("cluster_placement/" + strategy,
                              [strategy] { run_overcommitted(strategy); });
  }
  arv::bench::register_case("cluster_placement/rebalance",
                            [] { run_skewed_rebalance(); });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
