// Overload control plane: goodput under a load sweep, guards off vs on.
//
// A fixed fleet (no autoscaling, so capacity is a constant) serves two
// tenants: a small, steady "critical" flow (SLO 99.9%) and a "besteffort"
// flood whose offered rate sweeps from well below saturation to 3x past it.
// Each sweep point runs twice over the same compiled trace:
//
//   guards off — the plain router: retries and a deep (5000) accept
//     queue. Past saturation the queues fill with requests that will
//     all complete *late*: classic congestion collapse, where throughput
//     holds but goodput (completions inside the tenant's latency deadline)
//     falls off a cliff.
//   guards on  — the admission controller arms its two guards: the AIMD
//     concurrency limits keep per-replica queues shallow, so the excess is
//     refused fast at the replica (`dropped`) instead of completing late,
//     and the retry budget stops those refusals from multiplying into
//     retries (`retries_denied`).
//
// Expected, and checked by the summary verdicts: with guards off, goodput
// past saturation collapses more than 50% below its peak; with guards on,
// the critical tenant's goodput stays within 10% of its own peak at every
// sweep point and its SLO is attained throughout.
//
// Results go to BENCH_overload.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/cluster/overload.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/router.h"
#include "src/harness/scenario.h"
#include "src/load/driver.h"
#include "src/load/slo.h"
#include "src/load/trace_spec.h"

namespace {

using namespace arv;
using namespace arv::bench;

constexpr int kHosts = 4;
constexpr SimDuration kTraceLen = 6 * units::sec;
constexpr SimDuration kRunFor = 7 * units::sec;  // 1 s drain tail
constexpr int kCritRps = 400;                    // constant critical flow
// Total offered rates swept; the fleet saturates between the 2nd and 3rd
// points (measured — see the printed table), so the tail of the sweep is
// firmly past saturation.
constexpr int kSweepRps[] = {1200, 2400, 3600, 4800, 7200};

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

load::TraceSpec sweep_spec(int total_rps) {
  load::TraceSpec spec;
  spec.duration = kTraceLen;
  spec.slot = 100 * units::msec;
  spec.mean_rps = total_rps;
  spec.diurnal_amplitude = 0.0;  // steady state: the sweep is the variable
  spec.seed = 2019;
  // Tenant weights are proportions of mean_rps: pinning the critical share
  // to kCritRps/total keeps the critical flow constant across the sweep
  // while the best-effort flood does all the growing.
  spec.tenants.push_back(
      {"critical", static_cast<double>(kCritRps), 1 * units::msec,
       4 * units::msec, 1.3});
  spec.tenants.push_back(
      {"besteffort", static_cast<double>(total_rps - kCritRps),
       1 * units::msec, 4 * units::msec, 1.3});
  return spec;
}

struct TenantPoint {
  std::string tenant;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t timely = 0;  // completed inside the tenant's p99 target
  std::int64_t availability_permille = 0;
  std::int64_t p99_us = 0;
  bool attaining = false;
  double goodput_rps = 0;
};

struct SweepPoint {
  int offered_rps = 0;
  bool guards = false;
  double total_goodput_rps = 0;
  std::uint64_t dropped_total = 0;
  std::uint64_t retries_denied = 0;  // retry-budget refusals; 0 guards off
  std::vector<TenantPoint> tenants;
};

SweepPoint run_point(int total_rps, bool guards) {
  cluster::ClusterConfig config;
  config.seed = 42;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < kHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * units::GiB;
    fleet.add_host(host);
  }

  cluster::RouterConfig rc;
  rc.max_retries = 2;
  fleet.add_tenant("critical", rc);
  fleet.add_tenant("besteffort", rc);

  server::WebConfig web;
  web.service_cpu = 2 * units::msec;
  // Deep accept queues: with guards off this is the congestion-collapse
  // reservoir; with guards on the AIMD limit keeps the effective depth small.
  web.max_queue = 5000;
  for (int i = 0; i < 2; ++i) {
    if (fleet.place_tenant_web_pod("critical", res(1000, 1 * units::GiB),
                                   web) < 0 ||
        fleet.place_tenant_web_pod("besteffort", res(1000, 1 * units::GiB),
                                   web) < 0) {
      std::fprintf(stderr, "overload: replica placement failed\n");
      std::exit(1);
    }
  }

  if (guards) {
    fleet.enable_admission();
  }
  load::DriverConfig one_pass;
  one_pass.repeat = false;
  fleet.use_trace(load::compile(sweep_spec(total_rps)), one_pass);

  load::SloTarget crit_slo;
  crit_slo.availability_permille = 999;
  crit_slo.p99_target = 250 * units::msec;
  load::SloTarget be_slo;
  be_slo.availability_permille = 900;
  be_slo.p99_target = 1 * units::sec;
  fleet.declare_slo("critical", crit_slo);
  fleet.declare_slo("besteffort", be_slo);

  fleet.run(kRunFor);

  SweepPoint point;
  point.offered_rps = total_rps;
  point.guards = guards;
  if (guards) {
    point.retries_denied = fleet.admission()->retries_denied();
  }
  const double window_s =
      static_cast<double>(kTraceLen) / static_cast<double>(units::sec);
  const struct {
    const char* name;
    SimDuration deadline;
  } tenants[] = {{"critical", crit_slo.p99_target},
                 {"besteffort", be_slo.p99_target}};
  for (const auto& t : tenants) {
    const cluster::RequestRouter& r = *fleet.tenant_router(t.name);
    const server::RequestStats agg = r.aggregate();
    TenantPoint out;
    out.tenant = t.name;
    out.generated = r.generated();
    out.completed = agg.completed;
    const std::uint64_t late = agg.latency_hist.count_above(t.deadline);
    out.timely = agg.completed - std::min<std::uint64_t>(agg.completed, late);
    out.availability_permille = fleet.slo()->availability_permille(t.name);
    out.p99_us = fleet.slo()->p99_us(t.name);
    out.attaining = fleet.slo()->attaining(t.name);
    out.goodput_rps = static_cast<double>(out.timely) / window_s;
    point.total_goodput_rps += out.goodput_rps;
    point.dropped_total += r.dropped();
    point.tenants.push_back(out);
  }
  return point;
}

const TenantPoint& tenant_of(const SweepPoint& p, const std::string& name) {
  for (const TenantPoint& t : p.tenants) {
    if (t.tenant == name) {
      return t;
    }
  }
  std::fprintf(stderr, "overload: no tenant %s\n", name.c_str());
  std::exit(1);
}

struct Summary {
  double off_peak_goodput = 0;
  double off_min_past_peak = 0;
  double off_collapse_pct = 0;  // how far below peak the worst point fell
  double on_crit_peak = 0;
  double on_crit_min = 0;
  double on_crit_drop_pct = 0;
  bool on_crit_attained_all = true;
  bool off_collapsed = false;  // > 50% below peak
  bool on_crit_held = false;   // within 10% of peak, SLO attained throughout
};

Summary summarize(const std::vector<SweepPoint>& points) {
  Summary s;
  std::size_t off_peak_at = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].guards) {
      continue;
    }
    if (points[i].total_goodput_rps > s.off_peak_goodput) {
      s.off_peak_goodput = points[i].total_goodput_rps;
      off_peak_at = i;
    }
  }
  s.off_min_past_peak = s.off_peak_goodput;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].guards || i <= off_peak_at) {
      continue;
    }
    s.off_min_past_peak =
        std::min(s.off_min_past_peak, points[i].total_goodput_rps);
  }
  s.off_collapse_pct =
      s.off_peak_goodput <= 0
          ? 0
          : 100.0 * (1.0 - s.off_min_past_peak / s.off_peak_goodput);
  s.off_collapsed = s.off_collapse_pct > 50.0;

  s.on_crit_min = -1;
  for (const SweepPoint& p : points) {
    if (!p.guards) {
      continue;
    }
    const TenantPoint& crit = tenant_of(p, "critical");
    s.on_crit_peak = std::max(s.on_crit_peak, crit.goodput_rps);
    s.on_crit_min = s.on_crit_min < 0
                        ? crit.goodput_rps
                        : std::min(s.on_crit_min, crit.goodput_rps);
    s.on_crit_attained_all = s.on_crit_attained_all && crit.attaining;
  }
  s.on_crit_drop_pct =
      s.on_crit_peak <= 0 ? 0
                          : 100.0 * (1.0 - s.on_crit_min / s.on_crit_peak);
  s.on_crit_held = s.on_crit_drop_pct <= 10.0 && s.on_crit_attained_all;
  return s;
}

void write_json(const std::vector<SweepPoint>& points, const Summary& s) {
  const Json fleet = Json::object({{"hosts", kHosts},
                                   {"replicas_per_tenant", 2},
                                   {"critical_rps", kCritRps},
                                   {"trace_s", kTraceLen / units::sec}});
  Json sweep = Json::array();
  for (const SweepPoint& p : points) {
    Json tenants = Json::array();
    for (const TenantPoint& o : p.tenants) {
      tenants.push(Json::object({{"tenant", o.tenant},
                                 {"generated", o.generated},
                                 {"completed", o.completed},
                                 {"timely", o.timely},
                                 {"goodput_rps", Json::fixed(o.goodput_rps, 1)},
                                 {"availability_permille", o.availability_permille},
                                 {"p99_us", o.p99_us},
                                 {"attaining", o.attaining}}));
    }
    sweep.push(Json::object({{"offered_rps", p.offered_rps},
                             {"guards", p.guards},
                             {"total_goodput_rps", Json::fixed(p.total_goodput_rps, 1)},
                             {"dropped", p.dropped_total},
                             {"retries_denied", p.retries_denied},
                             {"tenants", tenants}}));
  }
  const Json summary = Json::object(
      {{"guards_off_peak_goodput_rps", Json::fixed(s.off_peak_goodput, 1)},
       {"guards_off_min_past_peak_rps", Json::fixed(s.off_min_past_peak, 1)},
       {"guards_off_collapse_pct", Json::fixed(s.off_collapse_pct, 1)},
       {"guards_off_collapsed", s.off_collapsed},
       {"guards_on_critical_peak_rps", Json::fixed(s.on_crit_peak, 1)},
       {"guards_on_critical_min_rps", Json::fixed(s.on_crit_min, 1)},
       {"guards_on_critical_drop_pct", Json::fixed(s.on_crit_drop_pct, 1)},
       {"guards_on_critical_slo_attained_all", s.on_crit_attained_all},
       {"guards_on_critical_held", s.on_crit_held}});
  write_bench_json(
      "BENCH_overload.json", "overload",
      Json::object({{"fleet", fleet}, {"sweep", sweep}, {"summary", summary}}),
      Json::object());
}

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "Overload sweep: goodput with the control plane off vs on",
      strf("%d hosts, 2+2 replicas, critical flow pinned at %d rps, "
           "best-effort flood swept to 3x past saturation; goodput = "
           "completions inside the tenant's p99 target",
           kHosts, kCritRps));

  std::vector<SweepPoint> points;
  for (const int rps : kSweepRps) {
    points.push_back(run_point(rps, /*guards=*/false));
    points.push_back(run_point(rps, /*guards=*/true));
  }
  const Summary s = summarize(points);

  Table table({"offered", "guards", "goodput", "crit good", "crit avail(‰)",
               "crit SLO", "be good", "refused", "retry denied"});
  for (const SweepPoint& p : points) {
    const TenantPoint& crit = tenant_of(p, "critical");
    const TenantPoint& be = tenant_of(p, "besteffort");
    table.add_row({std::to_string(p.offered_rps), p.guards ? "on" : "off",
                   strf("%.0f", p.total_goodput_rps),
                   strf("%.0f", crit.goodput_rps),
                   std::to_string(crit.availability_permille),
                   crit.attaining ? "attained" : "VIOLATED",
                   strf("%.0f", be.goodput_rps),
                   std::to_string(p.dropped_total),
                   std::to_string(p.retries_denied)});
  }
  std::fputs(table.to_ascii().c_str(), stdout);

  std::printf(
      "guards off: peak goodput %.0f rps, worst past-saturation point "
      "%.0f rps — a %.0f%% collapse (%s the >50%% bar)\n",
      s.off_peak_goodput, s.off_min_past_peak, s.off_collapse_pct,
      s.off_collapsed ? "clears" : "MISSES");
  std::printf(
      "guards on: critical goodput stays in [%.0f, %.0f] rps (%.1f%% below "
      "peak, %s the <=10%% bar), SLO %s at every sweep point\n",
      s.on_crit_min, s.on_crit_peak, s.on_crit_drop_pct,
      s.on_crit_held ? "clears" : "MISSES",
      s.on_crit_attained_all ? "attained" : "VIOLATED");

  write_json(points, s);
  arv::bench::register_case("overload/guards_off_3x",
                            [] { run_point(kSweepRps[4], false); });
  arv::bench::register_case("overload/guards_on_3x",
                            [] { run_point(kSweepRps[4], true); });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
