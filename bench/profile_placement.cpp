// Profile-driven vs slack-driven placement under correlated bursty services.
//
// The trap this bench sets is the one C-Balancer (arXiv:2009.08912) aims at:
// a scale-out decision made during a trough. Two services share one router's
// on/off arrival stream, so their bursts are perfectly correlated; four
// steady hogs burn half of every other host. Between bursts the bursty
// hosts are the *idlest-looking* machines in the fleet (a web pod at rest
// burns only its always-runnable listener), so slack-driven ("effective")
// placement stacks the new replicas exactly where the next burst will land
// on top of them. Profile-driven ("profile") placement reads the same
// trough, but the per-service usage series say the quiet hosts burst
// together — the same-service and correlation penalties push the replicas
// onto the hog hosts, whose load is high but *flat*.
//
// Both runs replay the identical warm-up, scale-out, and measurement load;
// only the placement strategy differs. Reported per run:
//   violations   co-resident pod pairs, right after the scale-out, whose
//                services are identical or profile-correlated (> 300
//                permille) — the co-residency mistakes the strategy made;
//   migrations   how often the (profiled) rebalancer had to repair the
//                placement reactively during the measurement phase;
//   p50/p95/p99  request latency over the whole run (warm-up is identical,
//                so the deltas are the measurement phase's).
//
// Expected: "profile" places with zero violations, needs no rebalancing,
// and clearly beats "effective" on p95/p99 — spreading bursts across flat
// hosts beats stacking them on machines that are only idle between bursts
// and paying for the mistake in queueing delay and repair migrations.
//
// Results go to BENCH_profile.json (override with ARV_PROFILE_OUT).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/cluster/cluster.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/profile.h"
#include "src/cluster/rebalancer.h"
#include "src/cluster/router.h"
#include "src/harness/scenario.h"
#include "src/util/stats.h"

namespace {

using namespace arv;
using namespace arv::bench;

constexpr int kHosts = 6;  // h0/h1 seed the bursty services, h2..h5 run hogs
constexpr int kScaleOut = 2;  // extra replicas per bursty service
constexpr SimDuration kOn = 200 * units::msec;
constexpr SimDuration kOff = 300 * units::msec;
constexpr int kWarmupCycles = 4;
constexpr int kMeasureCycles = 8;
constexpr double kWarmupRate = 200.0;   // 2 replicas: ~2 CPUs each per burst
constexpr double kMeasureRate = 600.0;  // 6 replicas: same per-replica burst
constexpr std::int64_t kCorrelated = 300;  // permille; violation threshold

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

struct PlacementResult {
  std::string name;
  int violations = 0;
  std::vector<int> placed_hosts;  // scale-out landings, placement order
  std::uint64_t migrations = 0;   // reactive repairs the rebalancer needed
  std::uint64_t generated = 0;
  double availability_pct = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// Co-resident pod pairs whose services are the same or profile-correlated:
/// every such pair is a burst the strategy stacked onto one machine.
int count_violations(const cluster::Cluster& cluster,
                     const cluster::ProfileStore& profiles) {
  int violations = 0;
  for (int a = 0; a < cluster.pod_count(); ++a) {
    const cluster::Pod& pa = cluster.pod(a);
    if (pa.host < 0) {
      continue;
    }
    for (int b = a + 1; b < cluster.pod_count(); ++b) {
      const cluster::Pod& pb = cluster.pod(b);
      if (pb.host != pa.host) {
        continue;
      }
      const std::string& sa = pa.spec.service_name();
      const std::string& sb = pb.spec.service_name();
      if (sa == sb ||
          profiles.service_correlation_permille(sa, sb) > kCorrelated) {
        ++violations;
      }
    }
  }
  return violations;
}

PlacementResult run_strategy(const std::string& strategy) {
  cluster::ClusterConfig config;
  config.seed = 42;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < kHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * units::GiB;
    fleet.add_host(host);
  }
  fleet.enable_router(0.0);
  cluster::ProfileConfig profiles;
  profiles.period = 50 * units::msec;
  profiles.window_rounds = 16;
  profiles.min_samples = 4;
  fleet.enable_profiles(profiles);
  fleet.use_placement(strategy);
  // The profiled rebalancer may repair a bad placement reactively — its
  // migration count is the price of getting the placement wrong up front.
  cluster::RebalanceConfig rebalance;
  rebalance.period = 100 * units::msec;
  rebalance.saturated_rounds = 2;
  rebalance.cooldown = 1 * units::sec;
  rebalance.min_residency = 500 * units::msec;
  fleet.enable_rebalancer(rebalance);

  // 20 ms of service per request: bursts push queue depth past one worker,
  // so usage actually rises above the web runtime's ~1000m listener floor
  // (an idle pod's floor — the reason troughs look idle in the first place).
  server::WebConfig web;
  web.service_cpu = 20 * units::msec;
  web.max_queue = 200;

  // Seed replicas on h0/h1; steady two-thread hogs half-load h2..h5.
  std::vector<int> replicas;
  for (int s = 0; s < 2; ++s) {
    cluster::PodSpec spec;
    spec.service = s == 0 ? "svc-a" : "svc-b";
    spec.name = spec.service + "-0";
    spec.resources = res(500, 512 * units::MiB);
    const int pod =
        fleet.cluster().create_pod(s, spec, cluster::web_replica(web));
    fleet.router()->add_replica(pod);
    replicas.push_back(pod);
  }
  for (int h = 2; h < kHosts; ++h) {
    cluster::PodSpec spec;
    spec.service = "batch-" + std::to_string(h);
    spec.name = spec.service + "-0";
    spec.resources = res(500, 512 * units::MiB);
    fleet.cluster().create_pod(h, spec,
                               cluster::cpu_hog_workload(2, 10000 * units::sec));
  }

  auto cycle = [&fleet](double rate, int count) {
    for (int i = 0; i < count; ++i) {
      fleet.router()->set_rate(rate);
      fleet.run(kOn);
      fleet.router()->set_rate(0.0);
      fleet.run(kOff);
    }
  };
  cycle(kWarmupRate, kWarmupCycles);

  // Scale out in the trough — the strategy sees the fleet at its most
  // deceptive: the bursty hosts idle at the listener floor, the hog hosts
  // visibly half-loaded.
  PlacementResult result;
  result.name = strategy;
  for (int r = 1; r <= kScaleOut; ++r) {
    for (int s = 0; s < 2; ++s) {
      cluster::PodSpec spec;
      spec.service = s == 0 ? "svc-a" : "svc-b";
      spec.name = spec.service + "-" + std::to_string(r);
      spec.resources = res(500, 512 * units::MiB);
      const int pod =
          fleet.scheduler().place(strategy, spec, cluster::web_replica(web));
      ARV_ASSERT_MSG(pod >= 0, "scale-out placement failed");
      fleet.router()->add_replica(pod);
      replicas.push_back(pod);
      result.placed_hosts.push_back(fleet.cluster().pod(pod).host);
    }
  }
  // Judge the placement decision itself, before the rebalancer can paper
  // over it: every correlated co-residency here is the strategy's mistake.
  result.violations =
      count_violations(fleet.cluster(), *fleet.profiles());

  cycle(kMeasureRate, kMeasureCycles);

  result.migrations = fleet.rebalancer()->migrations();
  const cluster::RequestRouter& r = *fleet.router();
  result.generated = r.generated();
  result.availability_pct =
      result.generated == 0
          ? 100.0
          : 100.0 * static_cast<double>(r.routed()) /
                static_cast<double>(result.generated);
  const server::RequestStats agg = r.aggregate();
  result.p50_ms = agg.percentile_ms(50.0);
  result.p95_ms = agg.percentile_ms(95.0);
  result.p99_ms = agg.percentile_ms(99.0);
  return result;
}

std::string hosts_json(const std::vector<int>& hosts) {
  std::string out = "[";
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(hosts[i]);
  }
  return out + "]";
}

void write_json(const std::vector<PlacementResult>& results) {
  const char* env = std::getenv("ARV_PROFILE_OUT");
  const std::string path =
      (env != nullptr && env[0] != '\0') ? env : "BENCH_profile.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"profile_placement\",\n"
      << strf("  \"fleet\": {\"hosts\": %d, \"scale_out\": %d, "
              "\"warmup_cycles\": %d, \"measure_cycles\": %d, "
              "\"measure_rate_per_sec\": %.0f},\n",
              kHosts, 2 * kScaleOut, kWarmupCycles, kMeasureCycles,
              kMeasureRate)
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PlacementResult& r = results[i];
    out << strf(
        "    {\"name\": \"%s\", \"violations\": %d, "
        "\"placed_hosts\": %s, \"migrations\": %llu,\n"
        "     \"generated\": %llu, \"availability_pct\": %.3f, "
        "\"p50_ms\": %.2f, \"p95_ms\": %.2f, \"p99_ms\": %.2f}%s\n",
        r.name.c_str(), r.violations, hosts_json(r.placed_hosts).c_str(),
        static_cast<unsigned long long>(r.migrations),
        static_cast<unsigned long long>(r.generated), r.availability_pct,
        r.p50_ms, r.p95_ms, r.p99_ms, i + 1 < results.size() ? "," : "");
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "profile_placement: failed to write %s\n",
                 path.c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "Profile-driven vs slack-driven placement",
      strf("%d hosts; two services bursting on one shared stream, %d steady "
           "hogs; scale-out happens in a trough, when the bursty hosts look "
           "idlest",
           kHosts, kHosts - 2));
  std::vector<PlacementResult> results;
  results.push_back(run_strategy("effective"));
  results.push_back(run_strategy("profile"));
  {
    Table table({"strategy", "violations", "placed_hosts", "migrations",
                 "avail(%)", "p50(ms)", "p95(ms)", "p99(ms)"});
    for (const PlacementResult& r : results) {
      table.add_row({r.name, std::to_string(r.violations),
                     hosts_json(r.placed_hosts), std::to_string(r.migrations),
                     strf("%.3f", r.availability_pct), strf("%.2f", r.p50_ms),
                     strf("%.2f", r.p95_ms), strf("%.2f", r.p99_ms)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  std::printf(
      "expected: profile placement lands the scale-out with zero correlated "
      "co-residencies and beats effective on p95/p99 — the hosts that look "
      "idle in the trough are the ones that burst together.\n");

  write_json(results);
  arv::bench::register_case("profile_placement/effective",
                            [] { run_strategy("effective"); });
  arv::bench::register_case("profile_placement/profile",
                            [] { run_strategy("profile"); });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
