// The §1 related-work comparison as an executable test: stock sysfs vs
// LXCFS-style static limits vs the paper's adaptive view, same runtime.
#include <gtest/gtest.h>

#include "src/harness/scenario.h"
#include "src/workloads/java_suites.h"

namespace arv {
namespace {

using namespace arv::units;

double run_view_mode(const jvm::JavaWorkload& w, bool view,
                     const std::string& policy) {
  harness::JvmScenario scenario;
  for (int i = 0; i < 5; ++i) {
    harness::JvmInstanceConfig config;
    config.container.name = "c" + std::to_string(i);
    config.container.cfs_quota_us = 1000000;  // 10-core limit, 4 effective
    config.container.enable_resource_view = view;
    config.container.view_params.policy = policy;
    config.flags.kind = jvm::JvmKind::kAdaptive;
    config.flags.dynamic_gc_threads = false;
    config.flags.xmx = 3 * jvm::min_heap_of(w);
    config.workload = w;
    scenario.add(config);
  }
  scenario.run();
  double total = 0;
  for (const auto& result : scenario.results()) {
    EXPECT_TRUE(result.stats.completed);
    total += static_cast<double>(result.stats.exec_time());
  }
  return total / 5;
}

TEST(ViewModes, AdaptiveBeatsStaticBeatsNone) {
  const auto w = [] {
    auto workload = *workloads::find_java_workload("xalan");
    workload.total_work = 3 * sec;
    return workload;
  }();
  const double none = run_view_mode(w, false, "paper");
  const double lxcfs = run_view_mode(w, true, "static");
  const double adaptive = run_view_mode(w, true, "paper");
  // Static limits already help (10 < 20 GC threads), the effective view
  // helps more (4 effective CPUs).
  EXPECT_LT(lxcfs, none);
  EXPECT_LT(adaptive, lxcfs);
}

TEST(ViewModes, StaticViewThroughSysconf) {
  container::Host host;
  container::ContainerRuntime runtime(host);
  container::ContainerConfig config;
  config.name = "lxcfs";
  config.cfs_quota_us = 600000;
  config.mem_limit = 3 * GiB;
  config.mem_soft_limit = 1 * GiB;
  config.view_params.policy = "static";
  auto& c = runtime.run(config);
  // LXCFS semantics: the *limits*, not effective values — memory reads the
  // hard limit even though the adaptive view would start at the soft limit.
  EXPECT_EQ(host.sysfs().sysconf(c.init_pid(), vfs::Sysconf::kNProcessorsOnln), 6);
  EXPECT_EQ(host.sysfs().sysconf(c.init_pid(), vfs::Sysconf::kPhysPages) *
                static_cast<long>(units::page),
            3L * GiB);
  // And it never moves with contention.
  auto& noisy = runtime.run({.name = "noisy"});
  (void)noisy;
  host.run_for(2 * sec);
  EXPECT_EQ(host.sysfs().sysconf(c.init_pid(), vfs::Sysconf::kNProcessorsOnln), 6);
}

}  // namespace
}  // namespace arv
