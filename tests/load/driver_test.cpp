// OpenLoopDriver: exact schedule replay, open-loop semantics, per-tenant
// request conservation — calm and under fault chaos.
#include "src/load/driver.h"

#include <gtest/gtest.h>

#include <string>

#include "src/cluster/faults.h"
#include "src/cluster/pod_workloads.h"
#include "src/harness/scenario.h"
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

TraceSpec two_tenant_spec(ArrivalProcess process) {
  TraceSpec spec;
  spec.duration = 2 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 400;
  spec.diurnal_amplitude = 0.4;
  spec.process = process;
  spec.seed = 77;
  spec.tenants.push_back({"api", 3.0, 1 * msec, 10 * msec, 1.3});
  spec.tenants.push_back({"batch", 1.0, 2 * msec, 30 * msec, 1.2});
  return spec;
}

TEST(OpenLoopDriver, ReplaysTheScheduleExactly) {
  const CompiledTrace trace = compile(two_tenant_spec(ArrivalProcess::kPoisson));
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  fleet.add_tenant("batch");
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  ASSERT_GE(fleet.place_tenant_web_pod("batch", web_res()), 0);
  fleet.use_trace(trace);
  // Exactly one cycle: every scheduled arrival injects, none twice.
  fleet.run(trace.duration());
  EXPECT_EQ(fleet.driver()->injected("api"), trace.tenants[0].total);
  EXPECT_EQ(fleet.driver()->injected("batch"), trace.tenants[1].total);
  EXPECT_EQ(fleet.driver()->injected(), trace.total_arrivals());
  EXPECT_EQ(fleet.driver()->cycles(), 1u);
  // The driver is the router's only request source (tenant routers never
  // self-generate), so generated must equal injected per tenant.
  EXPECT_EQ(fleet.tenant_router("api")->generated(), trace.tenants[0].total);
  EXPECT_EQ(fleet.tenant_router("batch")->generated(), trace.tenants[1].total);
}

TEST(OpenLoopDriver, RepeatsCyclesAndOneShotStops) {
  const CompiledTrace trace =
      compile(two_tenant_spec(ArrivalProcess::kDeterministic));
  for (const bool repeat : {true, false}) {
    SCOPED_TRACE(repeat ? "repeat" : "one-shot");
    harness::FleetScenario fleet;
    fleet.add_host(small_host());
    fleet.add_tenant("api");
    fleet.add_tenant("batch");
    ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
    ASSERT_GE(fleet.place_tenant_web_pod("batch", web_res()), 0);
    DriverConfig config;
    config.repeat = repeat;
    fleet.use_trace(trace, config);
    fleet.run(3 * trace.duration());
    if (repeat) {
      EXPECT_EQ(fleet.driver()->cycles(), 3u);
      EXPECT_EQ(fleet.driver()->injected(), 3 * trace.total_arrivals());
    } else {
      EXPECT_EQ(fleet.driver()->injected(), trace.total_arrivals());
    }
  }
}

TEST(OpenLoopDriver, OpenLoopNeverThrottlesArrivals) {
  // One tiny replica against a heavy schedule: a closed-loop generator
  // would slow down with the server; the open-loop driver must not. The
  // overload shows up as drops instead — that is the point.
  TraceSpec spec = two_tenant_spec(ArrivalProcess::kDeterministic);
  spec.mean_rps = 3000;
  spec.tenants.resize(1);
  const CompiledTrace trace = compile(spec);
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  server::WebConfig web;
  web.service_cpu = 20 * msec;  // far beyond one host's capacity at 3000 rps
  web.max_queue = 50;
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res(), web), 0);
  fleet.use_trace(trace);
  fleet.run(trace.duration());
  const cluster::RequestRouter& r = *fleet.tenant_router("api");
  EXPECT_EQ(r.generated(), trace.tenants[0].total);  // full schedule arrived
  EXPECT_GT(r.dropped(), 0u);                         // and the fleet bled
}

TEST(OpenLoopDriver, PerTenantConservationUnderChaos) {
  // The per-tenant request-conservation identity — generated ==
  // routed + dropped + unroutable — must survive crashes, restarts,
  // and failovers with the driver injecting through it all. A flash crowd
  // keeps the offered load bursty while the faults land.
  TraceSpec spec = two_tenant_spec(ArrivalProcess::kPoisson);
  FlashCrowd crowd;
  crowd.start = 500 * msec;
  crowd.ramp = 200 * msec;
  crowd.hold = 500 * msec;
  crowd.decay = 300 * msec;
  crowd.magnitude = 3.0;
  spec.flash_crowds.push_back(crowd);
  const CompiledTrace trace = compile(spec);
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t seed = 0xc0ffee + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    harness::FleetScenario fleet;
    for (int h = 0; h < 4; ++h) {
      fleet.add_host(small_host());
    }
    fleet.add_tenant("api");
    fleet.add_tenant("batch");
    ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
    ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
    ASSERT_GE(fleet.place_tenant_web_pod("batch", web_res()), 0);
    fleet.use_trace(trace);
    fleet.enable_recovery();
    Rng chaos_rng(seed);
    cluster::ChaosOptions chaos;
    chaos.horizon = 2 * sec;
    fleet.enable_faults(cluster::FaultPlan::random(
        chaos_rng, chaos, fleet.cluster().host_count(),
        fleet.cluster().pod_count()));
    fleet.run(4 * sec);
    for (const std::string tenant : {"api", "batch"}) {
      const cluster::RequestRouter& r = *fleet.tenant_router(tenant);
      EXPECT_EQ(r.generated(), r.routed() + r.dropped() + r.unroutable())
          << tenant;
      EXPECT_EQ(r.generated(), fleet.driver()->injected(tenant)) << tenant;
    }
  }
}

TEST(OpenLoopDriver, InjectedCostsDriveHeterogeneousService) {
  // Bounded-Pareto costs: with a wide cost range the latency distribution
  // must be visibly heavier-tailed than with a fixed cost.
  TraceSpec narrow = two_tenant_spec(ArrivalProcess::kDeterministic);
  narrow.tenants.resize(1);
  narrow.tenants[0].cost_min = 4 * msec;
  narrow.tenants[0].cost_max = 4 * msec;
  TraceSpec wide = narrow;
  wide.tenants[0].cost_max = 200 * msec;
  auto run = [](const TraceSpec& spec) {
    harness::FleetScenario fleet;
    fleet.add_host(small_host());
    fleet.add_tenant("api");
    server::WebConfig web;
    web.service_cpu = 4 * msec;
    EXPECT_GE(fleet.place_tenant_web_pod("api", web_res(), web), 0);
    fleet.use_trace(compile(spec));
    fleet.run(4 * sec);
    return fleet.tenant_router("api")->aggregate();
  };
  const server::RequestStats fixed = run(narrow);
  const server::RequestStats pareto = run(wide);
  ASSERT_GT(fixed.completed, 0u);
  ASSERT_GT(pareto.completed, 0u);
  EXPECT_GT(pareto.percentile_ms(99.0), fixed.percentile_ms(99.0));
}

}  // namespace
}  // namespace arv::load
