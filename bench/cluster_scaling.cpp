// Cluster engine scaling: wall-clock cost of a simulated second as the
// fleet grows, with the idle-host skip off and on.
//
// The fleet shape is the datacenter-realistic one: work concentrates on a
// few hosts (12 busy of up to 256) while the rest idle — exactly where an
// engine without the skip burns its time stepping hosts that do nothing.
// Each fleet size runs once with the skip off and once with it on; both
// configurations must produce identical request counters (asserted),
// because skipping is a performance feature, never a semantic one.
//
// The scaling curve is spliced into BENCH_cluster.json (override the path
// with ARV_CLUSTER_OUT) next to cluster_placement's results; re-runs
// replace a previous curve in place.
#include <benchmark/benchmark.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/router.h"
#include "src/util/assert.h"

namespace {

using namespace arv;
using namespace arv::bench;

constexpr int kHostCpus = 4;
constexpr int kBusyHosts = 12;  ///< hosts that actually receive pods
constexpr SimDuration kSim = 3 * units::sec;
const int kFleetSizes[] = {16, 64, 256};

struct ScalingPoint {
  int hosts = 0;
  bool skip = false;
  double wall_ms = 0;
  double sim_s_per_wall_s = 0;
  double speedup_vs_no_skip = 0;  ///< vs skip off, same fleet
  std::uint64_t hosts_skipped = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
};

ScalingPoint run_point(int hosts, bool skip) {
  cluster::ClusterConfig config;
  config.seed = 42;
  config.skip_idle_hosts = skip;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < hosts; ++i) {
    container::HostConfig host;
    host.cpus = kHostCpus;
    host.ram = 16 * units::GiB;
    fleet.add_host(host);
  }
  const int busy = std::min(hosts, kBusyHosts);
  fleet.enable_router(40.0 * busy);
  server::WebConfig web;
  web.sizing = server::Sizing::kFixed;
  web.fixed_workers = 1;
  web.service_cpu = 4 * units::msec;
  container::K8sResources res;
  res.request_millicpu = 1000;
  res.request_memory = 1 * units::GiB;
  for (int h = 0; h < busy; ++h) {
    cluster::Cluster& cluster = fleet.cluster();
    const int pod = cluster.create_pod(h, {"web-" + std::to_string(h), res},
                                       cluster::web_replica(web));
    if (!fleet.router()->add_replica(pod)) {
      std::abort();
    }
  }

  const auto start = std::chrono::steady_clock::now();
  fleet.run(kSim);
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();

  ScalingPoint point;
  point.hosts = hosts;
  point.skip = skip;
  point.wall_ms = wall_ms;
  point.sim_s_per_wall_s =
      static_cast<double>(kSim) / units::sec / (wall_ms / 1000.0);
  point.hosts_skipped = fleet.cluster().hosts_skipped();
  point.generated = fleet.router()->generated();
  point.completed = fleet.router()->aggregate().completed;
  return point;
}

void write_json(const std::vector<ScalingPoint>& points) {
  const char* env = std::getenv("ARV_CLUSTER_OUT");
  const std::string path =
      (env != nullptr && env[0] != '\0') ? env : "BENCH_cluster.json";
  std::string head;
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    head = buffer.str();
  }
  // Splice next to cluster_placement's members: truncate a previous curve
  // in place, else open the closing brace of whatever is there.
  const std::size_t marker = head.find("\"scaling_curve\"");
  if (marker != std::string::npos) {
    head.resize(marker);
    while (!head.empty() && (std::isspace(static_cast<unsigned char>(
                                 head.back())) != 0 ||
                             head.back() == ',')) {
      head.pop_back();
    }
  } else {
    while (!head.empty() &&
           std::isspace(static_cast<unsigned char>(head.back())) != 0) {
      head.pop_back();
    }
    if (!head.empty() && head.back() == '}') {
      head.pop_back();
    }
    while (!head.empty() &&
           std::isspace(static_cast<unsigned char>(head.back())) != 0) {
      head.pop_back();
    }
  }
  if (head.empty()) {
    head = "{\n  \"bench\": \"cluster_scaling\"";
  }
  if (head.back() != '{') {
    head += ',';
  }

  std::ofstream out(path);
  out << head << "\n  \"scaling_curve\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    out << strf(
        "    {\"hosts\": %d, \"skip_idle\": %s, "
        "\"wall_ms\": %.1f, \"sim_s_per_wall_s\": %.2f, "
        "\"speedup_vs_no_skip\": %.2f, \"hosts_skipped\": %llu}%s\n",
        p.hosts, p.skip ? "true" : "false", p.wall_ms,
        p.sim_s_per_wall_s, p.speedup_vs_no_skip,
        static_cast<unsigned long long>(p.hosts_skipped),
        i + 1 < points.size() ? "," : "");
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "cluster_scaling: failed to write %s\n", path.c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_header("Cluster engine scaling",
               strf("%d busy of N hosts, %.0f sim-s per point; baseline = "
                    "skip off",
                    kBusyHosts, static_cast<double>(kSim) / units::sec));
  std::vector<ScalingPoint> points;
  for (const int hosts : kFleetSizes) {
    ScalingPoint off = run_point(hosts, /*skip=*/false);
    off.speedup_vs_no_skip = 1.0;
    points.push_back(off);
    ScalingPoint on = run_point(hosts, /*skip=*/true);
    on.speedup_vs_no_skip = off.wall_ms / on.wall_ms;
    // Skipping must be invisible in every simulated observable — a
    // divergence here is an engine bug, not noise.
    ARV_ASSERT_MSG(on.generated == off.generated &&
                       on.completed == off.completed,
                   "the idle-host skip changed simulation results");
    points.push_back(on);
  }

  Table table({"hosts", "skip", "wall(ms)", "sim-s/wall-s", "speedup",
               "skipped"});
  for (const ScalingPoint& p : points) {
    table.add_row({std::to_string(p.hosts), p.skip ? "on" : "off",
                   strf("%.1f", p.wall_ms), strf("%.2f", p.sim_s_per_wall_s),
                   strf("%.2fx", p.speedup_vs_no_skip),
                   std::to_string(p.hosts_skipped)});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "expected: speedup grows with fleet size — idle hosts dominate large "
      "fleets, and the skip reclaims them.\n");
  write_json(points);

  arv::bench::register_case("cluster_scaling/16", [] { run_point(16, true); });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
