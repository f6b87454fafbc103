// Policy comparison: the Fig. 6 and Fig. 8 colocation scenarios re-run under
// both adaptation policies, "paper" and "static".
//
//   Fig. 6 shape: five identical containers with equal shares on 20 cores —
//   does the policy find the interference-free concurrency (paper ordering:
//   adaptive < static)?
//   Fig. 8 shape: one DaCapo container vs nine staggered CPU hogs — does the
//   effective view track the staircase of freed CPUs?
//
// Per policy we report exec/GC time, the final effective view, and the
// decision-reason mix (grew/shrank/clamped/reset/held), and write the lot to
// BENCH_policy.json (override the path with ARV_POLICY_OUT) for EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "src/core/policy.h"
#include "src/workloads/java_suites.h"

namespace {

using namespace arv;
using namespace arv::bench;

struct PolicyResult {
  std::string policy;
  ColocatedResult fig6;
  double fig8_exec_s = 0;
  double fig8_gc_s = 0;
  int fig8_final_e_cpu = 0;
  core::DecisionCounters fig8_cpu;
  core::DecisionCounters fig8_mem;
};

ColocatedResult run_fig6_shape(const jvm::JavaWorkload& w,
                               const std::string& policy) {
  jvm::JvmFlags flags{.kind = jvm::JvmKind::kAdaptive, .xmx = paper_xmx(w)};
  return run_colocated(w, flags, 5,
                       [&](int, container::ContainerConfig& config) {
                         config.view_params.policy = policy;
                       },
                       7200 * sec, "policy_fig6_" + policy);
}

void run_fig8_shape(const jvm::JavaWorkload& w, const std::string& policy,
                    PolicyResult& result) {
  harness::JvmScenario scenario(paper_host());
  for (int i = 0; i < 9; ++i) {
    scenario.add_cpu_hog({}, 4, (i + 1) * sec);
  }
  harness::JvmInstanceConfig config;
  config.container.name = "dacapo";
  config.flags.kind = jvm::JvmKind::kAdaptive;
  config.flags.dynamic_gc_threads = false;  // the view is the only bound
  config.flags.xmx = paper_xmx(w);
  config.workload = w;
  config.container.view_params.policy = policy;
  const auto idx = scenario.add(config);
  scenario.run(7200 * sec);
  const auto view = scenario.runtime().find("dacapo")->resource_view();
  result.fig8_exec_s =
      static_cast<double>(scenario.jvm(idx).stats().exec_time()) / 1e6;
  result.fig8_gc_s =
      static_cast<double>(scenario.jvm(idx).stats().gc_time()) / 1e6;
  result.fig8_final_e_cpu = view->effective_cpus();
  result.fig8_cpu = view->cpu_decisions();
  result.fig8_mem = view->mem_decisions();
}

std::string decision_mix(const core::DecisionCounters& c) {
  return strf("%llu/%llu/%llu/%llu/%llu",
              static_cast<unsigned long long>(c.grew),
              static_cast<unsigned long long>(c.shrank),
              static_cast<unsigned long long>(c.clamped),
              static_cast<unsigned long long>(c.reset),
              static_cast<unsigned long long>(c.held));
}

void write_json(const std::vector<PolicyResult>& results) {
  const char* env = std::getenv("ARV_POLICY_OUT");
  const std::string path =
      (env != nullptr && env[0] != '\0') ? env : "BENCH_policy.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"policy_compare\",\n  \"policies\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PolicyResult& r = results[i];
    out << strf(
        "    {\"policy\": \"%s\",\n"
        "     \"fig6\": {\"mean_exec_s\": %.3f, \"mean_gc_s\": %.3f, "
        "\"completed\": %d},\n"
        "     \"fig8\": {\"exec_s\": %.3f, \"gc_s\": %.3f, "
        "\"final_e_cpu\": %d,\n"
        "              \"cpu_decisions\": {\"grew\": %llu, \"shrank\": %llu, "
        "\"clamped\": %llu, \"reset\": %llu, \"held\": %llu},\n"
        "              \"mem_decisions\": {\"grew\": %llu, \"shrank\": %llu, "
        "\"clamped\": %llu, \"reset\": %llu, \"held\": %llu}}}%s\n",
        r.policy.c_str(), r.fig6.mean_exec_s, r.fig6.mean_gc_s,
        r.fig6.completed, r.fig8_exec_s, r.fig8_gc_s, r.fig8_final_e_cpu,
        static_cast<unsigned long long>(r.fig8_cpu.grew),
        static_cast<unsigned long long>(r.fig8_cpu.shrank),
        static_cast<unsigned long long>(r.fig8_cpu.clamped),
        static_cast<unsigned long long>(r.fig8_cpu.reset),
        static_cast<unsigned long long>(r.fig8_cpu.held),
        static_cast<unsigned long long>(r.fig8_mem.grew),
        static_cast<unsigned long long>(r.fig8_mem.shrank),
        static_cast<unsigned long long>(r.fig8_mem.clamped),
        static_cast<unsigned long long>(r.fig8_mem.reset),
        static_cast<unsigned long long>(r.fig8_mem.held),
        i + 1 < results.size() ? "," : "");
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "policy_compare: failed to write %s\n", path.c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

std::vector<PolicyResult> run_all() {
  const auto fig6_w = *workloads::find_java_workload("xalan");
  const auto fig8_w = workloads::dacapo_suite()[3];  // sunflow
  std::vector<PolicyResult> results;
  for (const std::string_view policy : core::kPolicyNames) {
    PolicyResult r;
    r.policy = policy;
    r.fig6 = run_fig6_shape(fig6_w, r.policy);
    run_fig8_shape(fig8_w, r.policy, r);
    results.push_back(r);
  }
  return results;
}

void print_tables(const std::vector<PolicyResult>& results) {
  print_header("Policy compare: Fig. 6 shape",
               "5 colocated xalan JVMs, equal shares (exec seconds; the "
               "paper ordering has adaptive < static)");
  {
    Table table({"policy", "exec(s)", "gc(s)", "completed"});
    for (const PolicyResult& r : results) {
      table.add_row({r.policy, strf("%.2f", r.fig6.mean_exec_s),
                     strf("%.3f", r.fig6.mean_gc_s),
                     strf("%d/5", r.fig6.completed)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  print_header("Policy compare: Fig. 8 shape",
               "sunflow vs 9 staggered CPU hogs (does the view track the "
               "freed-CPU staircase?)");
  {
    Table table({"policy", "exec(s)", "gc(s)", "final E_CPU",
                 "cpu g/s/c/r/h", "mem g/s/c/r/h"});
    for (const PolicyResult& r : results) {
      table.add_row({r.policy, strf("%.2f", r.fig8_exec_s),
                     strf("%.3f", r.fig8_gc_s),
                     std::to_string(r.fig8_final_e_cpu),
                     decision_mix(r.fig8_cpu), decision_mix(r.fig8_mem)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  std::printf(
      "expected: \"paper\" beats \"static\" on both shapes; on Fig. 8 its\n"
      "view tracks the freed-CPU staircase and settles at E_CPU 10, while\n"
      "\"static\" exports the 20-CPU limit throughout.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto results = run_all();
  print_tables(results);
  write_json(results);
  for (const std::string_view name : core::kPolicyNames) {
    const std::string policy(name);
    arv::bench::register_case("policy_compare/fig6/" + policy, [policy] {
      run_fig6_shape(*workloads::find_java_workload("xalan"), policy);
    });
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
