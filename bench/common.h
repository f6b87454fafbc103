// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary follows the same pattern: run the paper's scenario on
// the simulated 20-core / 128 GiB testbed, collect per-configuration
// results, and print the figure's rows as an ASCII table (plus CSV for the
// series figures). The scenario runs are also registered as google-benchmark
// cases so `--benchmark_filter` / JSON output work as usual.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/scenario.h"
#include "src/util/str.h"
#include "src/util/table.h"
#include "src/workloads/java_suites.h"

namespace arv::bench {

using namespace arv::units;

/// Where figure runs dump their full traces: the ARV_TRACE_DIR environment
/// variable, or nullopt when unset/empty (tracing then stays off).
std::optional<std::string> trace_dump_dir();

/// Writes <ARV_TRACE_DIR>/<label>.csv and .json for a traced host; no-op
/// when ARV_TRACE_DIR is unset or the host was built without tracing.
void maybe_dump_trace(const container::Host& host, const std::string& label);

/// The paper's testbed (§5.1): PowerEdge R730, dual 10-core Xeon, 128 GB.
/// Tracing is enabled (100 ms sampling) iff ARV_TRACE_DIR is set — the
/// observability layer is observation-only, so figure results are identical
/// either way.
inline container::HostConfig paper_host() {
  container::HostConfig config;
  config.cpus = 20;
  config.ram = 128 * GiB;
  if (trace_dump_dir().has_value()) {
    config.enable_tracing = true;
    config.trace.sample_interval = 100 * msec;
  }
  return config;
}

struct ColocatedResult {
  double mean_exec_s = 0;  ///< mean execution time, simulated seconds
  double mean_gc_s = 0;    ///< mean STW GC time
  int completed = 0;
  int oom_errors = 0;
  int killed = 0;
};

/// Runs `n` identical containers, each executing `workload` under `flags`.
/// `tweak` may adjust each container config (limits, cpusets, view on/off).
/// A non-empty `trace_label` dumps the run's trace (see maybe_dump_trace).
ColocatedResult run_colocated(
    const jvm::JavaWorkload& workload, const jvm::JvmFlags& flags, int n,
    const std::function<void(int, container::ContainerConfig&)>& tweak = {},
    SimDuration deadline = 7200 * sec, const std::string& trace_label = {});

/// Shorthand for the §5.1 heap sizing rule (-Xmx = 3x min heap).
inline Bytes paper_xmx(const jvm::JavaWorkload& w) { return 3 * jvm::min_heap_of(w); }

/// Registers a no-op google-benchmark case that executes `fn` once per
/// iteration, so every scenario is individually runnable/filterable.
void register_case(const std::string& name, std::function<void()> fn);

/// Prints a section header in the bench output.
void print_header(const std::string& figure, const std::string& description);

/// One untimed warm-up call of `run`, then the result with the median `key`
/// (a member pointer or callable) of `timed_runs` calls, so a single slow
/// run cannot skew a timing curve.
template <typename Run, typename Key>
auto median_run(int timed_runs, Run run, Key key) {
  run();
  std::vector<decltype(run())> runs;
  for (int i = 0; i < timed_runs; ++i) {
    runs.push_back(run());
  }
  std::sort(runs.begin(), runs.end(), [&key](const auto& a, const auto& b) {
    return std::invoke(key, a) < std::invoke(key, b);
  });
  return runs[static_cast<std::size_t>(timed_runs / 2)];
}

}  // namespace arv::bench
