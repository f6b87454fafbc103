// Container-scaling benchmark (the control-plane counterpart of Figure 7).
//
// Figure 7 asks how the *applications* behave as containers multiply; this
// bench asks what the simulated kernel's control plane costs as the host
// ramps to production container counts (C-Balancer's regime, PAPERS.md). For
// N in {64, 256, 1024} it measures:
//
//   * the immediate (wall-clock) cost of creating the 1st vs the Nth
//     container — creation must be O(1), not "re-derive every peer's bounds
//     on every cgroup event";
//   * wall-clock per simulated second across a ramp + steady-state phase in
//     which cpu.shares churn and container processes read /proc/cpuinfo —
//     the event-coalescing, total_shares-caching, and /proc/cpuinfo memo
//     hot paths.
//
// Each count reports the run with the median wall_ms_per_sim_s of
// kTimedRuns runs, after one untimed warm-up run, so a single slow run
// cannot skew the curve.
//
// Results are written to BENCH_scaling.json: each count's simulated span
// under "sim", its timings under "wall".
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/container/container.h"
#include "src/workloads/hogs.h"

namespace {

using namespace arv;
using namespace arv::bench;

constexpr int kTimedRuns = 5;

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct ScalingPoint {
  int containers = 0;
  double create_first_us = 0;  ///< wall cost of creating container #1
  double create_last_us = 0;   ///< wall cost of creating container #N
  double ramp_wall_ms = 0;     ///< ramp phase (one creation per sim ms)
  double steady_wall_ms = 0;   ///< 3 sim-s of share churn + cpuinfo reads
  double sim_s = 0;
  double wall_ms_per_sim_s = 0;
};

ScalingPoint run_scaling(int n) {
  ScalingPoint point;
  point.containers = n;

  container::HostConfig host_config;
  host_config.cpus = 20;
  host_config.ram = 128 * GiB;
  container::Host host(host_config);
  container::ContainerRuntime runtime(host);

  // --- ramp: one container per simulated millisecond -----------------------
  const auto ramp_start = std::chrono::steady_clock::now();
  std::vector<container::Container*> containers;
  containers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto create_start = std::chrono::steady_clock::now();
    containers.push_back(&runtime.run({}));
    const double create_us = wall_ms_since(create_start) * 1000.0;
    if (i == 0) {
      point.create_first_us = create_us;
    }
    if (i == n - 1) {
      point.create_last_us = create_us;
    }
    host.run_for(1 * msec);
  }
  point.ramp_wall_ms = wall_ms_since(ramp_start);

  // --- steady state: a few busy containers, cpu.shares churn, sysfs reads --
  std::vector<std::unique_ptr<workloads::CpuHog>> hogs;
  for (int i = 0; i < 8 && i < n; ++i) {
    hogs.push_back(std::make_unique<workloads::CpuHog>(host, *containers[i], 4,
                                                       10'000 * sec));
  }
  const SimDuration steady = 3 * sec;
  int churn_index = 0;
  std::function<void()> churn = [&] {
    // docker-update analogue: bump a rotating container's weight. Each write
    // fires kCpuChanged — the per-event hot path this bench exists to bound.
    container::Container* target =
        containers[static_cast<std::size_t>(churn_index) % containers.size()];
    target->update_cpu_shares(churn_index % 2 == 0 ? 512 : 1024);
    // A container process probing its view — the vfs render hot path.
    host.sysfs().read(target->init_pid(), "/proc/cpuinfo");
    ++churn_index;
    host.engine().schedule_after(50 * msec, churn);
  };
  host.engine().schedule_after(50 * msec, churn);

  const auto steady_start = std::chrono::steady_clock::now();
  host.run_for(steady);
  point.steady_wall_ms = wall_ms_since(steady_start);

  point.sim_s = static_cast<double>(n * msec + steady) / 1e6;
  point.wall_ms_per_sim_s =
      (point.ramp_wall_ms + point.steady_wall_ms) / point.sim_s;
  return point;
}

void write_json(const std::vector<ScalingPoint>& points) {
  Json sim_points = Json::array();
  Json wall_points = Json::array();
  for (const ScalingPoint& p : points) {
    sim_points.push(Json::object(
        {{"containers", p.containers}, {"sim_s", Json::fixed(p.sim_s, 3)}}));
    wall_points.push(
        Json::object({{"containers", p.containers},
                      {"create_first_us", Json::fixed(p.create_first_us, 1)},
                      {"create_last_us", Json::fixed(p.create_last_us, 1)},
                      {"ramp_wall_ms", Json::fixed(p.ramp_wall_ms, 2)},
                      {"steady_wall_ms", Json::fixed(p.steady_wall_ms, 2)},
                      {"wall_ms_per_sim_s", Json::fixed(p.wall_ms_per_sim_s, 2)}}));
  }
  write_bench_json("BENCH_scaling.json", "scaling",
                   Json::object({{"points", sim_points}}),
                   Json::object({{"points", wall_points}}));
}

void print_scaling() {
  print_header("Container scaling — control-plane cost",
               "per-creation work and wall-clock per simulated second");
  Table table(
      {"containers", "create #1 (us)", "create #N (us)", "wall ms/sim s"});
  std::vector<ScalingPoint> points;
  for (const int n : {64, 256, 1024}) {
    const ScalingPoint p = median_run(
        kTimedRuns, [n] { return run_scaling(n); },
        &ScalingPoint::wall_ms_per_sim_s);
    points.push_back(p);
    table.add_row({std::to_string(n), strf("%.1f", p.create_first_us),
                   strf("%.1f", p.create_last_us),
                   strf("%.2f", p.wall_ms_per_sim_s)});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  write_json(points);
}

}  // namespace

int main(int argc, char** argv) {
  print_scaling();
  arv::bench::register_case("scaling/256containers", [] { run_scaling(256); });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
