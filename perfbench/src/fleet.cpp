// fleet_day and fleet_sparse: the two cluster workloads.
//
// Both build a Cluster the way harness::FleetScenario does, except that
// every cluster component is registered through a TimedComponent, so a
// traced episode can attribute each Cluster::step() to the host phase, each
// component's tick, and the remaining serial work. The benchmark drives
// Cluster::step() itself and, between steps, issues sysfs probes the way a
// monitoring agent would.
#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/cluster/autoscale.h"
#include "src/cluster/cluster.h"
#include "src/cluster/faults.h"
#include "src/cluster/overload.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/rebalancer.h"
#include "src/cluster/recovery.h"
#include "src/cluster/router.h"
#include "src/cluster/scheduler.h"
#include "src/load/driver.h"
#include "src/load/slo.h"
#include "src/load/trace_spec.h"
#include "src/util/latency_histogram.h"

namespace arv::perfbench {
namespace {

using namespace arv::units;

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

/// One service: its router, its autoscaler (if any) and its latency target.
struct Tenant {
  std::string name;
  cluster::RequestRouter* router = nullptr;
  cluster::HorizontalAutoscaler* hpa = nullptr;
  load::SloTarget slo;
};

/// A cluster with timed component registration, the bench's step loop, and
/// its sysfs probes.
class Fleet {
 public:
  Fleet(const cluster::ClusterConfig& config, Tracer* tracer)
      : cluster_(config), scheduler_(cluster_), tracer_(tracer) {
    step_span_ = span("cluster.step");
    read_span_ = span("vfs.read");
    create_span_ = span("container.create");
    stop_span_ = span("container.stop");
  }
  ~Fleet() {
    // Components may reference each other (HPA -> router, admission ->
    // routers): tear down in reverse registration order.
    while (!components_.empty()) {
      components_.pop_back();
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int span(const std::string& name) {
    return tracer_ == nullptr ? -1 : tracer_->intern(name);
  }

  /// Construct a cluster component and register it behind a timer whose
  /// spans are named `span_name`.
  template <class T, class... Args>
  T& add(const std::string& span_name, Args&&... args) {
    auto component = std::make_unique<T>(cluster_, std::forward<Args>(args)...);
    T& ref = *component;
    wrappers_.push_back(
        std::make_unique<TimedComponent>(ref, tracer_, span(span_name)));
    cluster_.add_component(wrappers_.back().get());
    components_.push_back(std::move(component));
    return ref;
  }

  Tenant& add_tenant(const std::string& name, load::SloTarget slo) {
    cluster::RouterConfig config;
    config.arrivals_per_sec = 0;  // driven by the trace
    // Breakers effectively off: with the default threshold fleet_day's
    // crowd trips them fleet-wide and the day turns metastable, shedding
    // 10-25% of requests with outcomes that swing from seed to seed.
    config.breaker_threshold = 1000000;
    Tenant tenant;
    tenant.name = name;
    tenant.router = &add<cluster::RequestRouter>("cluster.router", config);
    tenant.slo = slo;
    tenants_.push_back(tenant);
    return tenants_.back();
  }

  /// Place one web replica for `tenant` through the "effective" strategy
  /// (or on `host` when >= 0) and enroll it in the tenant's router.
  int place_web(Tenant& tenant, cluster::PodSpec spec, server::WebConfig web,
                int host = -1) {
    spec.service = tenant.name;
    web.arrivals_per_sec = 0;
    int pod = -1;
    {
      Tracer::Scope scope(tracer_, create_span_);
      pod = host >= 0 ? cluster_.create_pod(host, std::move(spec),
                                            cluster::web_replica(web))
                      : scheduler_.place("effective", std::move(spec),
                                         cluster::web_replica(web));
    }
    if (pod >= 0) {
      tenant.router->add_replica(pod);
    }
    return pod;
  }

  /// One timed cluster step. In traced runs also records the host phase's
  /// share per stepped host (the host.step_us sample).
  void step() {
    const std::int64_t phase_before = cluster_.host_phase_wall_us();
    const std::uint64_t skipped_before = cluster_.hosts_skipped();
    {
      Tracer::Scope scope(tracer_, step_span_);
      cluster_.step();
    }
    if (tracer_ != nullptr) {
      const std::uint64_t stepped =
          static_cast<std::uint64_t>(cluster_.host_count()) -
          (cluster_.hosts_skipped() - skipped_before);
      if (stepped > 0) {
        host_step_ns_.push_back((cluster_.host_phase_wall_us() - phase_before) *
                                1000 / static_cast<std::int64_t>(stepped));
      }
    }
  }

  /// A monitoring agent's round: the fleet snapshot file on the control
  /// host, then three reads for each of the next `pods` running pods (cpu
  /// online and meminfo as the pod's init process, cpu.shares as the host).
  void probe(int pods) {
    read(0, proc::kHostInit, "/sys/arv/fleet/hosts");
    const int count = cluster_.pod_count();
    for (int tried = 0; pods > 0 && tried < count; ++tried) {
      const cluster::Pod& pod = cluster_.pod(probe_cursor_++ % count);
      if (!pod.running()) {
        continue;
      }
      --pods;
      const proc::Pid pid = pod.container->init_pid();
      const std::string name = pod.container->name();
      read(pod.host, pid, "/sys/devices/system/cpu/online");
      read(pod.host, pid, "/proc/meminfo");
      read(pod.host, proc::kHostInit,
           "/sys/fs/cgroup/cpu/" + name + "/cpu.shares");
    }
  }

  /// Stop every pod still on a host, timing each stop (teardown, after the
  /// outputs were read).
  void stop_all_pods() {
    for (int id = 0; id < cluster_.pod_count(); ++id) {
      if (cluster_.pod(id).host >= 0) {
        Tracer::Scope scope(tracer_, stop_span_);
        cluster_.stop_pod(id);
      }
    }
  }

  cluster::Cluster& cluster() { return cluster_; }
  std::deque<Tenant>& tenants() { return tenants_; }
  Tracer* tracer() { return tracer_; }
  const std::vector<std::int64_t>& host_step_ns() const { return host_step_ns_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t read_errors() const { return read_errors_; }

 private:
  void read(int host, proc::Pid pid, const std::string& path) {
    vfs::VirtualSysfs& sysfs = cluster_.host(host).sysfs();
    bool ok = false;
    {
      Tracer::Scope scope(tracer_, read_span_);
      ok = sysfs.read(pid, path).has_value();
    }
    ++reads_;
    read_errors_ += ok ? 0 : 1;
  }

  cluster::Cluster cluster_;
  cluster::ClusterScheduler scheduler_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<TimedComponent>> wrappers_;
  std::vector<std::unique_ptr<sim::TickComponent>> components_;
  std::deque<Tenant> tenants_;  ///< deque: add_tenant returns references
  std::vector<std::int64_t> host_step_ns_;
  int probe_cursor_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t read_errors_ = 0;
  int step_span_ = -1;
  int read_span_ = -1;
  int create_span_ = -1;
  int stop_span_ = -1;
};

constexpr SimDuration kProbeEvery = 250 * msec;
constexpr int kProbePods = 4;

/// Runs the timed phase: `duration` of cluster steps with a probe round
/// every kProbeEvery. Records its wall time, whole and per segment.
void run_timed(Fleet& fleet, SimDuration duration, EpisodeResult& result) {
  SegmentClock clock(result.segment_ns);
  const SimTime end = fleet.cluster().now() + duration;
  while (fleet.cluster().now() < end) {
    fleet.step();
    const SimTime now = fleet.cluster().now();
    if (now % kProbeEvery == 0) {
      fleet.probe(kProbePods);
    }
    clock.lap(now);
  }
  result.timed_wall_s = clock.elapsed_s();
  result.sim_s = static_cast<double>(duration) / static_cast<double>(sec);
}

/// The p-th percentile of `hist`, in ms, interpolated within the tick that
/// holds it. Latencies are whole ticks, so the nearest-rank percentile
/// jumps by a whole tick (20 % at 5 ms) when the share of requests above a
/// tick crosses 1 - p/100. Spreading each tick's samples evenly over the
/// tick, as Prometheus's histogram_quantile does within a bucket, makes the
/// percentile move smoothly with that share instead.
double tick_percentile_ms(const util::LatencyHistogram& hist, double p,
                          SimDuration tick) {
  const double allowed = (1.0 - p / 100.0) * static_cast<double>(hist.count());
  SimDuration lower = 0;
  double above_lower = static_cast<double>(hist.count_above(lower));
  if (above_lower <= allowed) {
    return 0;
  }
  for (;;) {
    const double above_upper =
        static_cast<double>(hist.count_above(lower + tick));
    if (above_upper <= allowed) {
      const double share = (above_lower - allowed) / (above_lower - above_upper);
      return (static_cast<double>(lower) + share * static_cast<double>(tick)) /
             1e3;
    }
    lower += tick;
    above_lower = above_upper;
  }
}

/// Output checks, end-to-end outcomes and per-layer counts shared by both
/// fleet workloads. `critical` names the tenant whose p99 is reported.
void report_outputs(Fleet& fleet, const std::string& critical,
                    const cluster::AdmissionController& admission,
                    const load::OpenLoopDriver& driver,
                    const cluster::VerticalRecommender& vpa,
                    const cluster::ClusterAutoscaler& ca,
                    EpisodeResult& result) {
  cluster::Cluster& cluster = fleet.cluster();
  std::uint64_t generated = 0;
  std::uint64_t rejected = 0;
  std::uint64_t routed = 0;
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t lost_total = 0;
  std::uint64_t good = 0;
  std::uint64_t scale_ups = 0;
  double critical_mean_us = 0;
  double critical_p99_ms = 0;
  for (Tenant& tenant : fleet.tenants()) {
    const cluster::RequestRouter& r = *tenant.router;
    const server::RequestStats agg = r.aggregate();
    std::uint64_t lost = 0;
    for (int i = 0; i < r.replica_count(); ++i) {
      lost += cluster.pod(r.replica_pod(i)).lost;
    }
    const std::string who = "tenant " + tenant.name + ": ";
    check(result, r.generated() == r.admitted() + r.rejected(),
          who + "generated != admitted + rejected");
    check(result,
          r.admitted() == r.routed() + r.dropped() + r.unroutable() + r.shed(),
          who + "admitted != routed + dropped + unroutable + shed");
    check(result, r.routed() == agg.completed + r.queued() + lost,
          who + "routed != completed + queued + lost");
    check(result, agg.completed > 0, who + "no request completed");
    generated += r.generated();
    rejected += r.rejected();
    routed += r.routed();
    completed += agg.completed;
    retries += r.retries();
    dropped += r.dropped();
    shed += r.shed();
    unroutable += r.unroutable();
    lost_total += lost;
    good += agg.completed -
            std::min(agg.completed,
                     agg.latency_hist.count_above(tenant.slo.p99_target));
    scale_ups += tenant.hpa == nullptr ? 0 : tenant.hpa->scale_ups();
    if (tenant.name == critical) {
      critical_p99_ms =
          tick_percentile_ms(agg.latency_hist, 99, cluster.config().tick);
      critical_mean_us = agg.latency_hist.mean();
    }
  }
  check(result, admission.rejected() == rejected,
        "admission rejected != sum of router rejections");
  check(result, driver.injected() == generated,
        "driver injected != sum of router generated");

  result.ops = generated;
  result.ops_failed = rejected + shed + dropped + unroutable + lost_total;
  result.call_errors = fleet.read_errors();
  put(result.outcome, "sim_app_runtime_s", critical_mean_us / 1e6, "sim-s",
      true);
  put(result.outcome, "sim_goodput_rps",
      static_cast<double>(good) / result.sim_s, "1/sim-s", true);
  put(result.outcome, "sim_p99_ms", critical_p99_ms, "sim-ms", true);

  auto& layers = result.layers;
  const double hosts = cluster.host_count();
  const double steps = static_cast<double>(cluster.steps_taken());
  put(layers, "cluster.skip_ratio",
      static_cast<double>(cluster.hosts_skipped()) / (steps * hosts), "ratio",
      false);
  put(layers, "cluster.fleet_rows_reused",
      static_cast<double>(cluster.fleet_rows_reused()), "count", false);
  put(layers, "cluster.migrations", static_cast<double>(cluster.migrations()),
      "count", true);
  put(layers, "cluster.failovers", static_cast<double>(cluster.failovers()),
      "count", true);
  put(layers, "cluster.router.generated", static_cast<double>(generated),
      "count", true);
  put(layers, "cluster.router.routed", static_cast<double>(routed), "count",
      true);
  put(layers, "cluster.router.completed", static_cast<double>(completed),
      "count", true);
  put(layers, "cluster.router.retries", static_cast<double>(retries), "count",
      true);
  put(layers, "cluster.router.dropped", static_cast<double>(dropped), "count",
      true);
  put(layers, "cluster.router.shed", static_cast<double>(shed), "count", true);
  put(layers, "cluster.router.rejected", static_cast<double>(rejected),
      "count", true);
  put(layers, "cluster.router.completed_ratio",
      static_cast<double>(completed) / static_cast<double>(generated), "ratio",
      true);
  put(layers, "cluster.overload.rejected",
      static_cast<double>(admission.rejected()), "count", true);
  put(layers, "cluster.overload.brownout_entries",
      static_cast<double>(admission.brownout_entries()), "count", true);
  put(layers, "cluster.hpa.scale_ups", static_cast<double>(scale_ups), "count",
      true);
  put(layers, "cluster.vpa.rewrites", static_cast<double>(vpa.rewrites()),
      "count", true);
  put(layers, "cluster.ca.hosts_added", static_cast<double>(ca.hosts_added()),
      "count", true);

  // Host-level work counts, summed over the fleet (syncs frozen hosts; the
  // timed phase is over).
  std::uint64_t rounds = 0;
  std::uint64_t cpu_updates = 0;
  std::uint64_t mem_updates = 0;
  std::uint64_t kswapd = 0;
  std::uint64_t direct = 0;
  std::uint64_t ooms = 0;
  std::uint64_t cache_hits = 0;
  for (int h = 0; h < cluster.host_count(); ++h) {
    container::Host& host = cluster.host(h);
    rounds += host.monitor().update_rounds();
    for (const auto& ns : host.monitor().views()) {
      cpu_updates += ns->cpu_updates();
      mem_updates += ns->mem_updates();
    }
    kswapd += host.memory().kswapd_wakeups();
    direct += host.memory().direct_reclaims();
    ooms += host.memory().oom_kills();
    cache_hits += host.sysfs().host_fs().render_cache_hits();
  }
  put(layers, "core.monitor.update_rounds", static_cast<double>(rounds),
      "count", true);
  put(layers, "core.ns.cpu_updates", static_cast<double>(cpu_updates), "count",
      true);
  put(layers, "core.ns.mem_updates", static_cast<double>(mem_updates), "count",
      true);
  put(layers, "mem.kswapd_wakeups", static_cast<double>(kswapd), "count", true);
  put(layers, "mem.direct_reclaims", static_cast<double>(direct), "count",
      true);
  put(layers, "mem.oom_kills", static_cast<double>(ooms), "count", true);
  put(layers, "vfs.reads", static_cast<double>(fleet.reads()), "count", false);
  put(layers, "vfs.render_cache_hit_ratio",
      static_cast<double>(cache_hits) / static_cast<double>(fleet.reads()),
      "ratio", false);
}

/// Per-layer wall times of a traced episode, from its spans. Runs after
/// teardown, so the container.stop spans are included.
void report_spans(Fleet& fleet, const load::OpenLoopDriver& driver,
                  std::int64_t phase_us_before, EpisodeResult& result) {
  Tracer* tracer = fleet.tracer();
  if (tracer == nullptr) {
    return;
  }
  const std::map<std::string, SpanTotals> totals = tracer->totals();
  const auto ms_of = [&](const std::string& name, bool self) {
    const auto it = totals.find(name);
    if (it == totals.end()) {
      return 0.0;
    }
    return static_cast<double>(self ? it->second.self_ns : it->second.total_ns) /
           1e6;
  };
  const auto p_us = [&](const std::string& name, double p) {
    return span_percentile_us(totals, name, p);
  };
  auto& layers = result.layers;
  const double step_ms = ms_of("cluster.step", /*self=*/false);
  const double host_phase_ms =
      static_cast<double>(fleet.cluster().host_phase_wall_us() -
                          phase_us_before) /
      1e3;
  double components_ms = 0;
  for (const char* name :
       {"cluster.router", "cluster.overload", "cluster.hpa", "cluster.vpa",
        "cluster.ca", "cluster.rebalancer", "cluster.recovery",
        "cluster.faults", "load.driver", "load.slo"}) {
    const double ms = ms_of(name, /*self=*/true);
    components_ms += ms;
    put(layers, std::string(name) + ".tick_ms", ms, "ms", false);
  }
  put(layers, "cluster.step_ms", step_ms, "ms", false);
  put(layers, "cluster.step_us_p50", p_us("cluster.step", 50), "us", false);
  put(layers, "cluster.step_us_p99", p_us("cluster.step", 99), "us", false);
  put(layers, "cluster.host_phase_ms", host_phase_ms, "ms", false);
  put(layers, "cluster.serial_ms", step_ms - host_phase_ms, "ms", false);
  put(layers, "cluster.serial_other_ms",
      step_ms - host_phase_ms - components_ms, "ms", false);
  put(layers, "host.step_us_p50", percentile(fleet.host_step_ns(), 50) / 1e3,
      "us", false);
  put(layers, "host.step_us_p99", percentile(fleet.host_step_ns(), 99) / 1e3,
      "us", false);
  put(layers, "load.driver.self_ms", static_cast<double>(driver.wall_us()) / 1e3,
      "ms", false);
  put(layers, "load.compile_ms", ms_of("load.compile", /*self=*/true), "ms",
      false);
  put(layers, "vfs.read_us_p50", p_us("vfs.read", 50), "us", false);
  put(layers, "container.create_us_p50", p_us("container.create", 50), "us",
      false);
  put(layers, "container.stop_us_p50", p_us("container.stop", 50), "us",
      false);
}

/// Compile a trace spec as the load.compile span.
load::CompiledTrace compile_timed(Fleet& fleet, const load::TraceSpec& spec) {
  Tracer::Scope scope(fleet.tracer(), fleet.span("load.compile"));
  return load::compile(spec);
}

// --- fleet_day ----------------------------------------------------------------

constexpr int kDayHosts = 10;  // 8 active at t=0, 2 parked for the CA
constexpr int kDayParked = 2;
constexpr SimDuration kDay = 60 * sec;

load::TraceSpec day_spec(std::uint64_t seed) {
  load::TraceSpec spec;
  spec.duration = kDay;
  spec.slot = 100 * msec;
  spec.mean_rps = 18000;
  spec.diurnal_amplitude = 0.6;
  spec.diurnal_periods = 1;
  // Past capacity for its hold: the AIMD limits refuse the excess.
  load::FlashCrowd crowd;
  crowd.start = 30 * sec;
  crowd.ramp = 2 * sec;
  crowd.hold = 4 * sec;
  crowd.decay = 2 * sec;
  crowd.magnitude = 3.0;
  spec.flash_crowds.push_back(crowd);
  spec.process = load::ArrivalProcess::kPoisson;
  spec.seed = seed;
  spec.tenants.push_back({"api", 3.0, 200 * usec, 5 * msec, 1.3});
  spec.tenants.push_back({"batch", 0.5, 1 * msec, 8 * msec, 1.2});
  return spec;
}

}  // namespace

EpisodeResult run_fleet_day(std::uint64_t seed, Tracer* tracer) {
  EpisodeResult result;
  const std::int64_t setup_start = now_ns();
  cluster::ClusterConfig config;
  config.seed = seed;
  Fleet fleet(config, tracer);
  cluster::Cluster& cluster = fleet.cluster();
  for (int i = 0; i < kDayHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * GiB;
    cluster.add_host(host);
  }
  for (int i = kDayHosts - kDayParked; i < kDayHosts; ++i) {
    cluster.cordon_host(i, true);
  }

  load::SloTarget api_slo;
  api_slo.availability_permille = 999;
  api_slo.p99_target = 250 * msec;
  load::SloTarget batch_slo;
  batch_slo.availability_permille = 990;
  batch_slo.p99_target = 1 * sec;
  Tenant& api = fleet.add_tenant("api", api_slo);
  Tenant& batch = fleet.add_tenant("batch", batch_slo);
  auto& admission = fleet.add<cluster::AdmissionController>(
      "cluster.overload", cluster::AdmissionConfig{});
  admission.register_tenant(api.name, *api.router);
  admission.register_tenant(batch.name, *batch.router);

  server::WebConfig web;
  web.service_cpu = 1 * msec;
  web.max_queue = 400;
  web.resize_interval = 500 * msec;
  cluster::PodSpec replica;
  replica.resources = res(1000, 512 * MiB);
  replica.resources.limit_millicpu = 1500;
  replica.view_policy = "paper";
  std::vector<int> api_seeds;
  std::vector<int> batch_seeds;
  for (int i = 0; i < 6; ++i) {
    const int pod = fleet.place_web(api, replica, web);
    if (pod >= 0) {
      api_seeds.push_back(pod);
    }
  }
  for (int i = 0; i < 4; ++i) {
    const int pod = fleet.place_web(batch, replica, web);
    if (pod >= 0) {
      batch_seeds.push_back(pod);
    }
  }

  auto& driver = fleet.add<load::OpenLoopDriver>(
      "load.driver", compile_timed(fleet, day_spec(seed)),
      load::DriverConfig{});
  driver.bind(api.name, *api.router);
  driver.bind(batch.name, *batch.router);
  auto& slo = fleet.add<load::SloAccountant>("load.slo", load::SloConfig{});
  for (const Tenant* tenant : {&api, &batch}) {
    slo.declare(tenant->name, *tenant->router, tenant->slo);
    admission.set_criticality(
        tenant->name,
        cluster::criticality_for_slo(tenant->slo.availability_permille));
  }

  cluster::HpaConfig hpa;
  // Faster than million_user's 500 ms: with 500 ms, how many api requests
  // queued past the cost cap swung with when scale-ups landed, and with it
  // the api p99 from seed to seed.
  hpa.period = 100 * msec;
  hpa.min_replicas = 6;
  hpa.max_replicas = 24;
  hpa.request_cpu = web.service_cpu;
  hpa.max_surge = 6;
  hpa.down_stabilization = 4 * sec;
  cluster::HpaConfig batch_hpa = hpa;
  batch_hpa.min_replicas = 4;
  batch_hpa.max_replicas = 12;
  batch_hpa.request_cpu = 2 * msec;
  const auto enable_hpa = [&](Tenant& tenant, const std::vector<int>& seeds,
                              const cluster::HpaConfig& hpa_config) {
    cluster::PodSpec tmpl = replica;
    tmpl.name = tenant.name;
    tmpl.service = tenant.name;
    tenant.hpa = &fleet.add<cluster::HorizontalAutoscaler>(
        "cluster.hpa", *tenant.router, tmpl, web, hpa_config);
    for (const int pod : seeds) {
      tenant.hpa->adopt(pod);
    }
  };
  enable_hpa(api, api_seeds, hpa);
  enable_hpa(batch, batch_seeds, batch_hpa);
  cluster::VpaConfig vpa_config;
  vpa_config.period = 500 * msec;
  auto& vpa = fleet.add<cluster::VerticalRecommender>("cluster.vpa", vpa_config);
  cluster::CaConfig ca_config;
  ca_config.period = 1 * sec;
  ca_config.min_hosts = kDayHosts - kDayParked;
  ca_config.cooldown = 4 * sec;
  auto& ca = fleet.add<cluster::ClusterAutoscaler>("cluster.ca", ca_config);
  result.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  const std::int64_t phase_before = cluster.host_phase_wall_us();
  run_timed(fleet, kDay, result);
  report_outputs(fleet, "api", admission, driver, vpa, ca, result);
  fleet.stop_all_pods();
  report_spans(fleet, driver, phase_before, result);
  return result;
}

// --- fleet_sparse -------------------------------------------------------------

namespace {

constexpr int kSparseHosts = 256;
constexpr int kBusyHosts = 12;
constexpr SimDuration kSparseRun = 30 * sec;

}  // namespace

EpisodeResult run_fleet_sparse(std::uint64_t seed, Tracer* tracer) {
  EpisodeResult result;
  const std::int64_t setup_start = now_ns();
  cluster::ClusterConfig config;
  config.seed = seed;
  Fleet fleet(config, tracer);
  cluster::Cluster& cluster = fleet.cluster();
  for (int i = 0; i < kSparseHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 16 * GiB;
    cluster.add_host(host);
  }

  load::SloTarget web_slo;
  web_slo.availability_permille = 999;
  web_slo.p99_target = 100 * msec;
  Tenant& web_tenant = fleet.add_tenant("web", web_slo);
  auto& admission = fleet.add<cluster::AdmissionController>(
      "cluster.overload", cluster::AdmissionConfig{});
  admission.register_tenant(web_tenant.name, *web_tenant.router);

  server::WebConfig web;
  web.service_cpu = 3 * msec;
  web.max_queue = 200;
  cluster::PodSpec replica;
  replica.resources = res(1000, 1 * GiB);
  replica.view_policy = "paper";
  std::vector<int> seeds;
  for (int h = 0; h < kBusyHosts; ++h) {
    replica.name = "web-" + std::to_string(h);
    seeds.push_back(fleet.place_web(web_tenant, replica, web, h));
  }
  replica.name.clear();

  load::TraceSpec spec;  // steady, well under capacity
  spec.duration = kSparseRun;
  spec.slot = 100 * msec;
  spec.mean_rps = 60.0 * kBusyHosts;
  spec.diurnal_amplitude = 0;
  spec.process = load::ArrivalProcess::kPoisson;
  spec.seed = seed;
  spec.tenants.push_back({"web", 1.0, 1 * msec, 10 * msec, 1.5});
  auto& driver = fleet.add<load::OpenLoopDriver>(
      "load.driver", compile_timed(fleet, spec), load::DriverConfig{});
  driver.bind(web_tenant.name, *web_tenant.router);
  auto& slo = fleet.add<load::SloAccountant>("load.slo", load::SloConfig{});
  slo.declare(web_tenant.name, *web_tenant.router, web_slo);
  admission.set_criticality(web_tenant.name, cluster::criticality_for_slo(
                                                 web_slo.availability_permille));

  cluster::HpaConfig hpa;  // demand stays under capacity: nearly idle
  hpa.period = 1 * sec;
  hpa.min_replicas = kBusyHosts;
  hpa.max_replicas = kBusyHosts + 4;
  hpa.request_cpu = web.service_cpu;
  cluster::PodSpec tmpl = replica;
  tmpl.name = web_tenant.name;
  web_tenant.hpa = &fleet.add<cluster::HorizontalAutoscaler>(
      "cluster.hpa", *web_tenant.router, tmpl, web, hpa);
  for (const int pod : seeds) {
    web_tenant.hpa->adopt(pod);
  }
  cluster::VpaConfig vpa_config;
  vpa_config.period = 500 * msec;
  auto& vpa = fleet.add<cluster::VerticalRecommender>("cluster.vpa", vpa_config);
  cluster::CaConfig ca_config;  // bands it never leaves: a 256-row scan only
  ca_config.period = 1 * sec;
  ca_config.min_hosts = kSparseHosts;
  ca_config.add_below_permille = 0;
  ca_config.drain_above_permille = 1000;
  auto& ca = fleet.add<cluster::ClusterAutoscaler>("cluster.ca", ca_config);
  fleet.add<cluster::Rebalancer>("cluster.rebalancer",
                                 cluster::RebalanceConfig{});
  cluster::DetectorConfig detector;
  detector.period = 100 * msec;
  detector.miss_threshold = 3;
  fleet.add<cluster::FailureDetector>("cluster.recovery", detector);
  fleet.add<cluster::RestartManager>("cluster.recovery",
                                     cluster::RestartConfig{});

  // Faults target the busy hosts and the seed replicas only: crashing an
  // idle machine tests nothing.
  Rng chaos(seed);
  cluster::ChaosOptions chaos_options;
  chaos_options.horizon = 15 * sec;
  chaos_options.host_crashes = 2;
  chaos_options.pod_crashes = 3;
  chaos_options.pressure_spikes = 1;
  chaos_options.monitor_stalls = 2;
  fleet.add<cluster::FaultInjector>(
      "cluster.faults",
      cluster::FaultPlan::random(chaos, chaos_options, kBusyHosts, kBusyHosts));
  result.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  const std::int64_t phase_before = cluster.host_phase_wall_us();
  run_timed(fleet, kSparseRun, result);
  report_outputs(fleet, "web", admission, driver, vpa, ca, result);
  fleet.stop_all_pods();
  report_spans(fleet, driver, phase_before, result);
  return result;
}

}  // namespace arv::perfbench
