// A compressed "day" of traffic against a 16-host fleet, with per-tenant
// SLO accounting.
//
// Three tenants share the fleet behind per-tenant routers. The
// OpenLoopDriver replays a compiled TraceSpec — diurnal curve, a lunchtime
// flash crowd, Poisson arrivals, bounded-Pareto request costs — open-loop:
// arrivals never wait on completions, so overload shows up as dropped
// requests and burned error budget instead of a silently slowing generator.
// The SloAccountant keeps each tenant's availability / p99 / error-budget
// books and exports them at /sys/arv/slo/<tenant>/.
//
//   build/examples/million_user_day
#include <cstdio>
#include <string>

#include "src/cluster/autoscale.h"
#include "src/harness/scenario.h"
#include "src/load/driver.h"
#include "src/load/slo.h"
#include "src/load/trace_spec.h"
#include "src/util/str.h"
#include "src/util/table.h"

using namespace arv;
using namespace arv::units;

int main() {
  cluster::ClusterConfig config;
  config.seed = 7;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < 16; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * GiB;
    fleet.add_host(host);
  }

  // One compressed day: 20 s of simulated time, 100 ms slots, with the
  // diurnal peak mid-day and a flash crowd on the afternoon downslope.
  load::TraceSpec spec;
  spec.duration = 20 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 6000;
  spec.diurnal_amplitude = 0.6;
  load::FlashCrowd crowd;
  crowd.start = 12 * sec;
  crowd.ramp = 1 * sec;
  crowd.hold = 2 * sec;
  crowd.decay = 1 * sec;
  crowd.magnitude = 2.0;
  spec.flash_crowds.push_back(crowd);
  spec.seed = 1;
  spec.tenants.push_back({"web", 6.0, 200 * usec, 2 * msec, 1.3});
  spec.tenants.push_back({"api", 3.0, 500 * usec, 8 * msec, 1.3});
  spec.tenants.push_back({"batch", 1.0, 2 * msec, 30 * msec, 1.2});

  container::K8sResources res;
  res.request_millicpu = 1000;
  res.request_memory = 512 * MiB;
  res.limit_millicpu = 2000;
  server::WebConfig web;
  web.service_cpu = 1 * msec;
  web.resize_interval = 500 * msec;  // worker pools track the resource view
  cluster::PodSpec pod;
  pod.view_policy = "paper";  // every replica sees the adaptive view

  struct Tier {
    const char* tenant;
    int replicas;
    load::SloTarget slo;
  };
  const Tier tiers[] = {
      {"web", 8, {999, 100 * msec}},
      {"api", 6, {995, 250 * msec}},
      {"batch", 4, {990, 1 * sec}},
  };
  for (const Tier& tier : tiers) {
    fleet.add_tenant(tier.tenant);
    for (int i = 0; i < tier.replicas; ++i) {
      fleet.place_tenant_web_pod(tier.tenant, res, web, pod);
    }
  }
  fleet.use_trace(load::compile(spec));
  for (const Tier& tier : tiers) {
    fleet.declare_slo(tier.tenant, tier.slo);
  }
  fleet.enable_vpa();

  fleet.run(spec.duration);

  std::printf("one day, %llu requests across %zu tenants on 16 hosts\n\n",
              static_cast<unsigned long long>(fleet.driver()->injected()),
              std::size(tiers));
  Table table({"tenant", "injected", "avail(‰)", "target(‰)", "p99(ms)",
               "budget(‰)", "SLO"});
  for (const Tier& tier : tiers) {
    table.add_row(
        {tier.tenant,
         std::to_string(fleet.driver()->injected(tier.tenant)),
         std::to_string(fleet.slo()->availability_permille(tier.tenant)),
         std::to_string(tier.slo.availability_permille),
         strf("%.2f",
              static_cast<double>(fleet.slo()->p99_us(tier.tenant)) / 1000.0),
         std::to_string(fleet.slo()->budget_remaining_permille(tier.tenant)),
         fleet.slo()->attaining(tier.tenant) ? "attained" : "VIOLATED"});
  }
  std::fputs(table.to_ascii().c_str(), stdout);

  // The same numbers are a control-plane read away, like any other view.
  const auto p99 =
      fleet.cluster().host(0).sysfs().host_fs().read("/sys/arv/slo/web/p99_us");
  std::printf("\n$ cat /sys/arv/slo/web/p99_us\n%s",
              p99 ? p99->c_str() : "(missing)\n");
  return 0;
}
