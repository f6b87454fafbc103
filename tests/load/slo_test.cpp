// SloAccountant: per-tenant availability/budget/burn accounting and the
// /sys/arv/slo/ control plane.
#include "src/load/slo.h"

#include <gtest/gtest.h>

#include <string>

#include "src/cluster/pod_workloads.h"
#include "src/harness/scenario.h"
#include "src/load/driver.h"
#include "src/load/trace_spec.h"

namespace arv::load {
namespace {

using namespace arv::units;

container::HostConfig small_host() {
  container::HostConfig config;
  config.cpus = 4;
  config.ram = 8 * GiB;
  return config;
}

container::K8sResources web_res() {
  container::K8sResources r;
  r.request_millicpu = 1000;
  r.request_memory = 1 * GiB;
  return r;
}

TraceSpec gentle_spec() {
  TraceSpec spec;
  spec.duration = 2 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 200;
  spec.diurnal_amplitude = 0.3;
  spec.seed = 11;
  spec.tenants.push_back({"api", 1.0, 1 * msec, 8 * msec, 1.3});
  return spec;
}

TEST(SloAccountant, HealthyTenantKeepsItsBudget) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  fleet.use_trace(compile(gentle_spec()));
  SloTarget target;
  target.availability_permille = 999;
  target.p99_target = 500 * msec;
  fleet.declare_slo("api", target);
  fleet.run(4 * sec);
  ASSERT_GT(fleet.tenant_router("api")->generated(), 0u);
  EXPECT_EQ(fleet.slo()->availability_permille("api"), 1000);
  EXPECT_EQ(fleet.slo()->budget_remaining_permille("api"), 1000);
  EXPECT_EQ(fleet.slo()->burn_rate_permille("api"), 0);
  EXPECT_GT(fleet.slo()->p99_us("api"), 0);
  EXPECT_TRUE(fleet.slo()->attaining("api"));
}

TEST(SloAccountant, StarvedTenantBurnsItsBudget) {
  // A tenant with no replicas at all: every request is unroutable, the
  // availability collapses and the budget burns to zero.
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  fleet.use_trace(compile(gentle_spec()));
  fleet.declare_slo("api");
  fleet.run(2 * sec);
  ASSERT_GT(fleet.tenant_router("api")->generated(), 0u);
  EXPECT_EQ(fleet.tenant_router("api")->unroutable(),
            fleet.tenant_router("api")->generated());
  EXPECT_EQ(fleet.slo()->availability_permille("api"), 0);
  EXPECT_EQ(fleet.slo()->budget_remaining_permille("api"), 0);
  EXPECT_GT(fleet.slo()->burn_rate_permille("api"), 1000);
  EXPECT_FALSE(fleet.slo()->attaining("api"));
}

TEST(SloAccountant, ControlFilesMatchAccountantState) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  fleet.use_trace(compile(gentle_spec()));
  fleet.declare_slo("api");
  // Components first fire one tick after registration, so align the run end
  // with an accounting round: rounds land at 1ms, 101ms, ..., 2001ms.
  fleet.run(2 * sec + 1 * msec);
  const vfs::PseudoFs& fs = fleet.cluster().host(0).sysfs().host_fs();
  const auto read_int = [&](const std::string& path) {
    const auto contents = fs.read(path);
    EXPECT_TRUE(contents.has_value()) << path;
    return contents ? std::stoll(*contents) : -1;
  };
  EXPECT_EQ(read_int("/sys/arv/slo/api/availability_permille"),
            fleet.slo()->availability_permille("api"));
  EXPECT_EQ(read_int("/sys/arv/slo/api/p99_us"), fleet.slo()->p99_us("api"));
  EXPECT_EQ(read_int("/sys/arv/slo/api/budget_remaining_permille"),
            fleet.slo()->budget_remaining_permille("api"));
  EXPECT_EQ(read_int("/sys/arv/slo/api/burn_rate_permille"),
            fleet.slo()->burn_rate_permille("api"));
  EXPECT_EQ(read_int("/sys/arv/slo/api/generated"),
            static_cast<std::int64_t>(fleet.tenant_router("api")->generated()));
  EXPECT_EQ(read_int("/sys/arv/slo/api/good"),
            static_cast<std::int64_t>(fleet.tenant_router("api")->routed()));
  const auto objective = fs.read("/sys/arv/slo/api/objective");
  ASSERT_TRUE(objective.has_value());
  EXPECT_NE(objective->find("availability_permille 999"), std::string::npos);
}

TEST(SloAccountant, TraceCarriesSloSeries) {
  cluster::ClusterConfig config;
  config.enable_tracing = true;
  config.trace_interval = 100 * msec;
  harness::FleetScenario fleet(config);
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  fleet.use_trace(compile(gentle_spec()));
  fleet.declare_slo("api");
  fleet.run(2 * sec);
  const obs::TraceRecorder& trace = *fleet.cluster().trace();
  for (const std::string series :
       {"slo.api.p99_us", "slo.api.availability_permille",
        "slo.api.budget_remaining_permille", "slo.api.burn_rate_permille",
        "load.injected", "api.load.injected"}) {
    EXPECT_TRUE(trace.find(series).has_value()) << series;
  }
}

}  // namespace
}  // namespace arv::load
