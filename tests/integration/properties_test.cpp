// System-wide property tests: invariants that must hold for any container
// configuration, plus bit-for-bit determinism of the whole stack.
#include <gtest/gtest.h>

#include "src/container/container.h"
#include "src/harness/scenario.h"
#include "src/util/rng.h"
#include "src/workloads/hogs.h"
#include "src/workloads/java_suites.h"
#include "tests/testing/trace_matchers.h"

namespace arv {
namespace {

using namespace arv::units;

// gtest names each instance after a byte dump of its parameter, so the
// padding is a zeroed field: left implicit, it would hold stack garbage and
// the test names would change from one build to the next.
struct RandomScenarioParam {
  std::uint64_t seed;
  int containers;
  std::int32_t pad = 0;
};

class RandomizedStack : public ::testing::TestWithParam<RandomScenarioParam> {};

TEST_P(RandomizedStack, GlobalInvariantsHoldUnderRandomConfigs) {
  const auto param = GetParam();
  Rng rng(param.seed);
  container::HostConfig host_config;
  host_config.cpus = static_cast<int>(rng.uniform_int(2, 32));
  host_config.ram = rng.uniform_int(4, 64) * GiB;
  container::Host host(host_config);
  container::ContainerRuntime runtime(host);

  std::vector<container::Container*> containers;
  std::vector<std::unique_ptr<workloads::CpuHog>> hogs;
  std::vector<std::unique_ptr<workloads::MemHog>> mem_hogs;
  for (int i = 0; i < param.containers; ++i) {
    container::ContainerConfig config;
    config.name = "c" + std::to_string(i);
    config.cpu_shares = rng.uniform_int(2, 4096);
    if (rng.chance(0.5)) {
      config.cfs_quota_us = rng.uniform_int(1, 10) * 100000;
    }
    if (rng.chance(0.3)) {
      config.cpuset = CpuSet::first_n(
          static_cast<int>(rng.uniform_int(1, host_config.cpus)));
    }
    if (rng.chance(0.5)) {
      config.mem_limit = rng.uniform_int(1, 4) * GiB;
      config.mem_soft_limit = config.mem_limit / 2;
    }
    auto& c = runtime.run(config);
    containers.push_back(&c);
    hogs.push_back(std::make_unique<workloads::CpuHog>(
        host, c, static_cast<int>(rng.uniform_int(1, 8)), 3600 * sec));
    if (rng.chance(0.5)) {
      // A cgroup has one consumer: the memory hog runs in a container of
      // its own with the same limits.
      config.name += "m";
      auto& m = runtime.run(config);
      containers.push_back(&m);
      mem_hogs.push_back(std::make_unique<workloads::MemHog>(
          host, m, rng.uniform_int(64, 2048) * MiB, 1 * GiB));
    }
  }

  for (int step = 0; step < 20; ++step) {
    host.run_for(100 * msec);
    CpuTime usage_total = 0;
    for (const auto* c : containers) {
      const auto view = c->resource_view();
      // Algorithm 1 invariants.
      ASSERT_GE(view->effective_cpus(), 1);
      ASSERT_GE(view->effective_cpus(), view->cpu_bounds().lower);
      ASSERT_LE(view->effective_cpus(), view->cpu_bounds().upper);
      ASSERT_LE(view->cpu_bounds().upper, host_config.cpus);
      // Algorithm 2 invariants.
      ASSERT_GE(view->effective_memory(), view->mem_soft_limit());
      ASSERT_LE(view->effective_memory(), view->mem_hard_limit());
      // Memory accounting invariants.
      const auto cg = c->cgroup();
      const Bytes hard = host.cgroups().get(cg).mem().limit_in_bytes;
      ASSERT_LE(host.memory().usage(cg), hard);
      usage_total += host.scheduler().total_usage(cg);
    }
    // CPU conservation: total granted never exceeds elapsed capacity.
    const CpuTime capacity =
        static_cast<CpuTime>(host_config.cpus) * host.now();
    ASSERT_LE(usage_total, capacity + host.now() / 100);
    // Free memory never negative.
    ASSERT_GE(host.memory().free_memory(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedStack,
                         ::testing::Values(RandomScenarioParam{1, 2},
                                           RandomScenarioParam{2, 5},
                                           RandomScenarioParam{3, 8},
                                           RandomScenarioParam{4, 3},
                                           RandomScenarioParam{5, 10},
                                           RandomScenarioParam{6, 1},
                                           RandomScenarioParam{7, 6}));

// The same invariants, but asserted over the *recorded trace* with per-tick
// sampling — so a violation at any tick is caught, not just at the 100 ms
// probe points above, and the update-round correlation (±1 step per round,
// reset exactly when kswapd was seen by the update) is checked too.
class RandomizedTrace : public ::testing::TestWithParam<RandomScenarioParam> {};

TEST_P(RandomizedTrace, TraceInvariantsHoldUnderRandomConfigs) {
  namespace trace = arv::testing::trace;
  const auto param = GetParam();
  Rng rng(param.seed * 7919 + 17);
  container::HostConfig host_config;
  host_config.cpus = static_cast<int>(rng.uniform_int(2, 16));
  host_config.ram = rng.uniform_int(2, 16) * GiB;
  host_config.enable_tracing = true;  // sample_interval 0: every tick
  container::Host host(host_config);
  container::ContainerRuntime runtime(host);

  std::vector<std::string> names;
  std::vector<std::unique_ptr<workloads::CpuHog>> hogs;
  std::vector<std::unique_ptr<workloads::MemHog>> mem_hogs;
  for (int i = 0; i < param.containers; ++i) {
    container::ContainerConfig config;
    config.name = "c" + std::to_string(i);
    config.cpu_shares = rng.uniform_int(2, 4096);
    if (rng.chance(0.5)) {
      config.cfs_quota_us = rng.uniform_int(1, 10) * 100000;
    }
    // Always set memory limits so the soft-limit reset is exercised.
    config.mem_limit = rng.uniform_int(1, 4) * GiB;
    config.mem_soft_limit = config.mem_limit / 2;
    auto& c = runtime.run(config);
    names.push_back(c.name());
    hogs.push_back(std::make_unique<workloads::CpuHog>(
        host, c, static_cast<int>(rng.uniform_int(1, 8)), 3600 * sec));
    // Memory hogs sized against the whole host, so several of them drive
    // free memory through the kswapd watermarks. Each runs in a container
    // of its own with the same limits: a cgroup has one consumer.
    config.name += "m";
    auto& m = runtime.run(config);
    names.push_back(m.name());
    mem_hogs.push_back(std::make_unique<workloads::MemHog>(
        host, m, rng.uniform_int(256, 3072) * MiB, 1 * GiB));
  }

  host.run_for(2 * units::sec);

  const obs::TraceRecorder& rec = *host.trace();
  ASSERT_EQ(rec.sample_count(), 2000u);
  EXPECT_TRUE(trace::AllCountersMonotonic(rec));
  for (const std::string& n : names) {
    // Algorithm 1: e_cpu confined to [LOWER, UPPER], moving at most
    // cpu_step per completed update round.
    EXPECT_TRUE(trace::WithinBounds(rec, n + ".e_cpu", n + ".cpu_lower",
                                    n + ".cpu_upper"));
    EXPECT_TRUE(trace::StepBounded(rec, n + ".e_cpu", n + ".cpu_updates",
                                   core::Params{}.cpu_step));
    // Algorithm 2: e_mem confined to [soft, hard]; any update round that
    // observed kswapd reclaiming must land exactly on the soft limit.
    EXPECT_TRUE(trace::WithinBounds(rec, n + ".e_mem", n + ".mem_soft",
                                    n + ".mem_hard"));
    EXPECT_TRUE(trace::ResetsUnderPressure(rec, n + ".e_mem", n + ".mem_soft",
                                           n + ".mem_updates",
                                           "mem.kswapd_active"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedTrace,
                         ::testing::Values(RandomScenarioParam{1, 2},
                                           RandomScenarioParam{2, 4},
                                           RandomScenarioParam{3, 6},
                                           RandomScenarioParam{4, 3},
                                           RandomScenarioParam{5, 8},
                                           RandomScenarioParam{6, 1},
                                           RandomScenarioParam{7, 5}));

struct DeterminismProbe {
  SimDuration exec_time;
  SimDuration gc_time;
  int minor_gcs;
  CpuTime usage;
};

DeterminismProbe run_probe() {
  harness::JvmScenario scenario;
  for (int i = 0; i < 3; ++i) {
    harness::JvmInstanceConfig config;
    config.container.name = "c" + std::to_string(i);
    config.flags.kind = jvm::JvmKind::kAdaptive;
    // xalan: 16 mutators x 3 containers oversubscribe the host, so shares
    // and contention actually shape the outcome.
    config.workload = *workloads::find_java_workload("xalan");
    config.workload.total_work = 2 * sec;
    config.flags.xmx = 3 * jvm::min_heap_of(config.workload);
    scenario.add(config);
  }
  scenario.run();
  const auto& stats = scenario.jvm(0).stats();
  DeterminismProbe probe;
  probe.exec_time = stats.exec_time();
  probe.gc_time = stats.gc_time();
  probe.minor_gcs = stats.minor_gcs;
  probe.usage = scenario.host().scheduler().total_usage(1);
  return probe;
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  const auto a = run_probe();
  const auto b = run_probe();
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.gc_time, b.gc_time);
  EXPECT_EQ(a.minor_gcs, b.minor_gcs);
  EXPECT_EQ(a.usage, b.usage);
}

TEST(Determinism, ResultsDependOnConfigurationOnly) {
  // Changing an unrelated container's shares must change the outcome
  // (sanity check that the probe actually exercises contention).
  const auto baseline = run_probe();
  harness::JvmScenario scenario;
  for (int i = 0; i < 3; ++i) {
    harness::JvmInstanceConfig config;
    config.container.name = "c" + std::to_string(i);
    config.container.cpu_shares = i == 1 ? 4096 : 1024;
    config.flags.kind = jvm::JvmKind::kAdaptive;
    config.workload = *workloads::find_java_workload("xalan");
    config.workload.total_work = 2 * sec;
    config.flags.xmx = 3 * jvm::min_heap_of(config.workload);
    scenario.add(config);
  }
  scenario.run();
  EXPECT_NE(scenario.jvm(0).stats().exec_time(), baseline.exec_time);
}

}  // namespace
}  // namespace arv
