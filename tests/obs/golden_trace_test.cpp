// Golden-trace regression tests for Algorithms 1 & 2.
//
// Each test runs a scaled-down version of one paper figure's scenario with
// tracing on, serializes the full trace to CSV, and compares it
// byte-for-byte against a checked-in golden under tests/obs/golden/. The
// simulation is deterministic, so any drift in scheduler accounting, kswapd
// behavior, or the Algorithm 1/2 update rules shows up as a line diff
// anchored to a simulated timestamp.
//
// Regeneration (after an *intentional* model change):
//   ARV_REGOLDEN=1 ctest --test-dir build -R GoldenTrace
// then inspect the golden diff in git before committing — the diff IS the
// behavior change. See docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include "src/harness/scenario.h"
#include "src/workloads/java_suites.h"
#include "tests/testing/golden.h"

namespace arv {
namespace {

using namespace arv::units;

std::string golden_path(const char* file) {
  return std::string(ARV_GOLDEN_DIR) + "/" + file;
}

container::HostConfig traced_host(int cpus, Bytes ram) {
  container::HostConfig config;
  config.cpus = cpus;
  config.ram = ram;
  config.enable_tracing = true;
  config.trace.sample_interval = 100 * msec;
  return config;
}

// Figure 6 (scaled down): three colocated adaptive JVMs with equal shares.
// Their e_cpu series must show the containers negotiating the host between
// GC bursts — the "dynamic parallelism" the paper plots.
std::string fig6_trace(const core::Params& params) {
  harness::JvmScenario scenario(traced_host(8, 16 * GiB));
  for (int i = 0; i < 3; ++i) {
    harness::JvmInstanceConfig config;
    config.container.name = "c" + std::to_string(i);
    config.container.view_params = params;
    config.flags.kind = jvm::JvmKind::kAdaptive;
    config.workload = *workloads::find_java_workload("sunflow");
    config.workload.total_work = 3 * sec;
    config.flags.xmx = 3 * jvm::min_heap_of(config.workload);
    scenario.add(config);
  }
  scenario.run(600 * sec);
  return scenario.host().trace()->to_csv();
}

// Figure 8 (scaled down): one adaptive JVM plus three staggered sysbench
// hogs; e_cpu climbs step-by-step as each hog exhausts its budget and frees
// CPUs.
std::string fig8_trace(const core::Params& params) {
  harness::JvmScenario scenario(traced_host(8, 16 * GiB));
  for (int i = 0; i < 3; ++i) {
    scenario.add_cpu_hog({}, 4, (i + 1) * 2 * sec);
  }
  harness::JvmInstanceConfig config;
  config.container.name = "dacapo";
  config.container.view_params = params;
  config.flags.kind = jvm::JvmKind::kAdaptive;
  config.workload = *workloads::find_java_workload("sunflow");
  config.workload.total_work = 6 * sec;
  config.flags.xmx = 3 * jvm::min_heap_of(config.workload);
  scenario.add(config);
  scenario.run(600 * sec);
  return scenario.host().trace()->to_csv();
}

// Figure 12 (scaled down): an elastic-heap JVM under a memory hog on a small
// host. e_mem ramps by 10%-of-headroom steps while free memory lasts and
// snaps back to the soft limit when kswapd wakes.
std::string fig12_trace(const core::Params& params) {
  container::HostConfig host_config = traced_host(4, 4 * GiB);
  // An HDD-speed swap would stretch the pressured phase over minutes of
  // simulated time; an SSD-ish rate keeps the golden small while preserving
  // the grow/reset shape.
  host_config.mem.swap_bandwidth_per_sec = 256 * MiB;
  harness::JvmScenario scenario(host_config);
  harness::JvmInstanceConfig config;
  config.container.name = "heap";
  config.container.mem_limit = 2 * GiB;
  config.container.mem_soft_limit = 1 * GiB;
  config.container.view_params = params;
  config.flags.kind = jvm::JvmKind::kAdaptive;
  config.flags.elastic_heap = true;
  config.flags.heap_poll_interval = 250 * msec;
  config.workload.name = "microleak";
  config.workload.total_work = 8 * sec;
  config.workload.mutator_threads = 2;
  config.workload.alloc_per_cpu_sec = 256 * MiB;
  config.workload.live_set = 64 * MiB;
  config.workload.survival_ratio = 0.55;
  config.workload.live_fraction_of_alloc = 0.25;
  scenario.add(config);

  container::ContainerConfig hog;
  hog.name = "hog";
  scenario.add_mem_hog(hog, 3 * GiB, 1 * GiB);
  scenario.try_run(600 * sec);
  return scenario.host().trace()->to_csv();
}

TEST(GoldenTrace, Fig6DynamicParallelism) {
  const auto result = testing::compare_golden(
      golden_path("fig6_dynamic_parallelism.csv"), fig6_trace(core::Params{}));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(GoldenTrace, Fig8CpuSharesAdaptation) {
  const auto result = testing::compare_golden(golden_path("fig8_cpu_shares.csv"),
                                          fig8_trace(core::Params{}));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(GoldenTrace, Fig12ElasticHeapTimeline) {
  const auto result = testing::compare_golden(golden_path("fig12_elastic_heap.csv"),
                                          fig12_trace(core::Params{}));
  EXPECT_TRUE(result.ok) << result.message;
}

// --- perturbation: the goldens must be sensitive to the paper's constants --

TEST(GoldenTrace, PerturbedCpuThresholdFailsLoudly) {
  if (testing::regenerate_requested()) {
    GTEST_SKIP() << "ARV_REGOLDEN set: would overwrite the golden with a "
                    "perturbed trace";
  }
  core::Params params;
  params.cpu_util_threshold = 0.5;  // Algorithm 1 default: 0.95
  const auto result =
      testing::compare_golden(golden_path("fig8_cpu_shares.csv"), fig8_trace(params));
  EXPECT_FALSE(result.ok)
      << "trace is insensitive to cpu_util_threshold — the golden would not "
         "catch an Algorithm 1 regression";
  EXPECT_NE(result.message.find("line"), std::string::npos)
      << "failure must carry a line diff, got: " << result.message;
}

TEST(GoldenTrace, PerturbedMemGrowthFailsLoudly) {
  if (testing::regenerate_requested()) {
    GTEST_SKIP() << "ARV_REGOLDEN set: would overwrite the golden with a "
                    "perturbed trace";
  }
  core::Params params;
  params.mem_growth_frac = 0.5;  // Algorithm 2 default: 0.10
  const auto result = testing::compare_golden(golden_path("fig12_elastic_heap.csv"),
                                          fig12_trace(params));
  EXPECT_FALSE(result.ok)
      << "trace is insensitive to mem_growth_frac — the golden would not "
         "catch an Algorithm 2 regression";
  EXPECT_NE(result.message.find("line"), std::string::npos)
      << "failure must carry a line diff, got: " << result.message;
}

}  // namespace
}  // namespace arv
