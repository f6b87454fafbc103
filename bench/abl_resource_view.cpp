// Ablation studies for the design choices DESIGN.md §5 calls out.
//
//   A. What the view exports: none (stock sysfs) vs static limits (LXCFS /
//      cgroup-namespace, the §1 related work) vs effective capacity (the
//      paper). Identical runtime everywhere — only the view varies.
//   B. Algorithm 1's UTIL_THRSHD (95%) and ±1 step size.
//   C. Algorithm 2's growth increment and the free-memory prediction gate.
//   D. The GC-thread formula min(N, N_active, E_CPU) vs dropping a term.
//   E. The update interval: scheduling-period-coupled vs fixed timers.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>

#include "bench/common.h"
#include "src/workloads/java_suites.h"

namespace {

using namespace arv;
using namespace arv::bench;

// --- A: view modes ----------------------------------------------------------

void ablation_view_modes() {
  print_header("Ablation A", "what the per-container view exports "
                             "(5 containers, 10-core limits, same runtime; "
                             "one column per policy)");
  // None (stock sysfs), then one column per policy: "paper" is the adaptive
  // view, "static" the LXCFS comparator.
  std::vector<std::string> headers = {"benchmark", "no view (host values)"};
  for (const std::string_view policy : core::kPolicyNames) {
    headers.emplace_back(policy);
  }
  Table table(headers);
  for (const auto& w : workloads::dacapo_suite()) {
    auto run_policy = [&](bool view, std::string_view policy) {
      // dynamic_gc_threads off: the view is the *only* thread bound, so the
      // ablation isolates what the view exports.
      jvm::JvmFlags flags{.kind = jvm::JvmKind::kAdaptive,
                          .dynamic_gc_threads = false,
                          .xmx = paper_xmx(w)};
      return run_colocated(w, flags, 5,
                           [&](int, container::ContainerConfig& config) {
                             config.cfs_quota_us = 1000000;  // 10 cores
                             config.enable_resource_view = view;
                             config.view_params.policy = policy;
                           })
          .mean_exec_s;
    };
    const double none = run_policy(false, "paper");
    std::vector<std::string> row = {w.name, "1.00"};
    for (const std::string_view policy : core::kPolicyNames) {
      row.push_back(strf("%.2f", run_policy(true, policy) / none));
    }
    table.add_row(row);
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "expected: exporting static limits helps a little (10 < 20 threads),\n"
      "but only the adaptive \"paper\" view reflects the 4-core reality (§1's\n"
      "LXCFS critique).\n");
}

// --- B: UTIL_THRSHD and step size -------------------------------------------

struct Fig8Like {
  double exec_s;
  double gc_s;
  int final_e_cpu;
};

Fig8Like run_fig8_like(core::Params params) {
  const auto w = workloads::dacapo_suite()[3];  // sunflow
  harness::JvmScenario scenario(paper_host());
  for (int i = 0; i < 9; ++i) {
    scenario.add_cpu_hog({}, 4, (i + 1) * sec);
  }
  harness::JvmInstanceConfig config;
  config.container.name = "dacapo";
  config.container.view_params = params;
  config.flags.kind = jvm::JvmKind::kAdaptive;
  config.flags.dynamic_gc_threads = false;  // the view is the only bound
  config.flags.xmx = paper_xmx(w);
  config.workload = w;
  const auto idx = scenario.add(config);
  scenario.run(7200 * sec);
  const auto view = scenario.runtime().find("dacapo")->resource_view();
  return {static_cast<double>(scenario.jvm(idx).stats().exec_time()) / 1e6,
          static_cast<double>(scenario.jvm(idx).stats().gc_time()) / 1e6,
          view->effective_cpus()};
}

void ablation_threshold_and_step() {
  print_header("Ablation B", "Algorithm 1: UTIL_THRSHD and step size "
                             "(Figure-8 scenario, sunflow exec seconds)");
  {
    Table table({"UTIL_THRSHD", "exec(s)", "gc(s)", "final E_CPU"});
    for (const double threshold : {0.50, 0.80, 0.90, 0.95, 0.99}) {
      core::Params params;
      params.cpu_util_threshold = threshold;
      const auto r = run_fig8_like(params);
      table.add_row({strf("%.2f", threshold), strf("%.2f", r.exec_s),
                     strf("%.3f", r.gc_s), std::to_string(r.final_e_cpu)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  {
    Table table({"cpu_step", "exec(s)", "gc(s)", "final E_CPU"});
    for (const int step : {1, 2, 4, 8}) {
      core::Params params;
      params.cpu_step = step;
      const auto r = run_fig8_like(params);
      table.add_row({std::to_string(step), strf("%.2f", r.exec_s),
                     strf("%.3f", r.gc_s), std::to_string(r.final_e_cpu)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  std::printf(
      "expected: low thresholds over-expand into contention; huge steps\n"
      "oscillate; the paper's 0.95/±1 sits at or near the minimum.\n");
}

// --- C: memory growth increment + prediction gate ----------------------------

void ablation_memory_growth() {
  print_header("Ablation C", "Algorithm 2: growth increment and prediction "
                             "gate (3 leak containers, 40 GiB host)");
  Table table({"growth frac", "gate", "completed", "kswapd wakeups",
               "mean committed (GiB)", "swap stalls (s)"});
  for (const double frac : {0.05, 0.10, 0.30, 1.00}) {
    for (const bool gate : {true, false}) {
      container::HostConfig host_config = paper_host();
      host_config.ram = 48 * GiB;  // == sum of hard limits: overshoot hurts
      harness::JvmScenario scenario(host_config);
      auto w = workloads::alloc_microbench();
      w.total_work = 30 * sec;
      w.alloc_per_cpu_sec = 800 * MiB;
      std::vector<std::size_t> ids;
      for (int i = 0; i < 3; ++i) {
        harness::JvmInstanceConfig config;
        config.container.name = "c" + std::to_string(i);
        config.container.mem_limit = 16 * GiB;
        config.container.mem_soft_limit = 6 * GiB;
        config.container.view_params.mem_growth_frac = frac;
        config.container.view_params.mem_prediction_gate = gate;
        config.flags.kind = jvm::JvmKind::kAdaptive;
        config.flags.elastic_heap = true;
        config.flags.heap_poll_interval = 250 * msec;
        config.workload = w;
        ids.push_back(scenario.add(config));
      }
      scenario.try_run(7200 * sec);
      int completed = 0;
      double committed = 0;
      double stalls = 0;
      for (const auto id : ids) {
        completed += scenario.jvm(id).stats().completed ? 1 : 0;
        committed += static_cast<double>(scenario.jvm(id).heap().committed()) /
                     static_cast<double>(GiB);
        stalls += static_cast<double>(scenario.jvm(id).stats().stall_time) / 1e6;
      }
      table.add_row({strf("%.2f", frac), gate ? "on" : "OFF",
                     strf("%d/3", completed),
                     std::to_string(scenario.host().memory().kswapd_wakeups()),
                     strf("%.1f", committed / 3.0), strf("%.2f", stalls)});
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "expected: without the gate (or with aggressive increments) effective\n"
      "memory overshoots and kswapd churns; the gated 10%% step converges\n"
      "with little reclaim activity.\n");
}

// --- D: the GC-thread formula -------------------------------------------------

void ablation_gc_formula() {
  print_header("Ablation D", "N_gc formula (Figure-6 scenario, exec seconds)");
  Table table({"benchmark", "min(N,Nactive,E_CPU)", "min(N,E_CPU)",
               "min(N,Nactive)"});
  for (const auto& w : workloads::dacapo_suite()) {
    auto run_formula = [&](bool with_n_active, bool with_e_cpu) {
      jvm::JvmFlags flags;
      flags.kind = with_e_cpu ? jvm::JvmKind::kAdaptive : jvm::JvmKind::kVanilla8;
      flags.dynamic_gc_threads = with_n_active;
      flags.xmx = paper_xmx(w);
      return run_colocated(w, flags, 5,
                           [&](int, container::ContainerConfig& config) {
                             config.enable_resource_view = with_e_cpu;
                           })
          .mean_exec_s;
    };
    const double full = run_formula(true, true);
    const double no_active = run_formula(false, true);
    const double no_ecpu = run_formula(true, false);
    table.add_row({w.name, strf("%.2f", full), strf("%.2f", no_active),
                   strf("%.2f", no_ecpu)});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "expected: dropping E_CPU hurts most (over-threading returns);\n"
      "dropping N_active hurts small heaps (workers without enough work).\n");
}

// --- E: update interval --------------------------------------------------------

void ablation_update_period() {
  print_header("Ablation E", "sys_namespace update interval "
                             "(Figure-8 scenario, sunflow exec seconds)");
  Table table({"interval", "exec(s)", "gc(s)"});
  auto run_period = [&](SimDuration period, const char* label) {
    const auto w = workloads::dacapo_suite()[3];
    harness::JvmScenario scenario(paper_host());
    scenario.host().monitor().set_fixed_update_period(period);
    for (int i = 0; i < 9; ++i) {
      scenario.add_cpu_hog({}, 4, (i + 1) * sec);
    }
    harness::JvmInstanceConfig config;
    config.container.name = "dacapo";
    config.flags.kind = jvm::JvmKind::kAdaptive;
    config.flags.dynamic_gc_threads = false;
    config.flags.xmx = paper_xmx(w);
    config.workload = w;
    const auto idx = scenario.add(config);
    scenario.run(7200 * sec);
    table.add_row({label,
                   strf("%.2f", static_cast<double>(
                                    scenario.jvm(idx).stats().exec_time()) /
                                    1e6),
                   strf("%.3f", static_cast<double>(
                                    scenario.jvm(idx).stats().gc_time()) /
                                    1e6)});
  };
  run_period(0, "scheduling period (paper)");
  run_period(5 * msec, "fixed 5 ms");
  run_period(100 * msec, "fixed 100 ms");
  run_period(1 * sec, "fixed 1 s");
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "expected: very slow timers miss freed CPUs (worse); very fast timers\n"
      "react to noise but cost little here — the scheduling period is a\n"
      "good default because it scales with load.\n");
}

}  // namespace

int main(int argc, char** argv) {
  ablation_view_modes();
  ablation_threshold_and_step();
  ablation_memory_growth();
  ablation_gc_formula();
  ablation_update_period();
  arv::bench::register_case("ablation/view_modes/adaptive", [] {
    const auto w = workloads::dacapo_suite()[0];
    run_colocated(w, {.kind = jvm::JvmKind::kAdaptive, .xmx = paper_xmx(w)}, 5,
                  [](int, container::ContainerConfig& config) {
                    config.cfs_quota_us = 1000000;
                  });
  });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
