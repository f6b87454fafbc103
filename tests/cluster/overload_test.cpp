// Overload control plane: the fleet-wide retry budget, adaptive AIMD
// concurrency limits, the router's config-clamping regressions and a seeded
// sweep of extreme router configs, the trace series and control files, pinned
// request dispositions, and the metastable flash-crowd scenario.
#include "src/cluster/overload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/cluster/pod_workloads.h"
#include "src/cluster/router.h"
#include "src/cluster/scheduler.h"
#include "src/harness/scenario.h"
#include "src/load/trace_spec.h"
#include "src/util/rng.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host(int cpus = 4, Bytes ram = 8 * GiB) {
  container::HostConfig config;
  config.cpus = cpus;
  config.ram = ram;
  return config;
}

// --- satellite regressions: config validation -------------------------------

// A RouterConfig full of out-of-range knobs used to ARV_ASSERT-abort in the
// router constructor; it now clamps to the nearest legal value, documented by
// RouterConfig::validated().
TEST(RouterConfigValidation, ClampsInvalidKnobs) {
  RouterConfig bad;
  bad.arrivals_per_sec = -10;
  bad.max_retries = -3;

  const RouterConfig v = bad.validated();
  EXPECT_EQ(v.arrivals_per_sec, 0);
  EXPECT_EQ(v.max_retries, 0);

  // The constructor applies the same clamp: constructing from the bad config
  // must not abort, and the router must run with the clamped knobs.
  Cluster cluster;
  cluster.add_host(small_host());
  RequestRouter router(cluster, bad);
  cluster.add_component(&router);
  EXPECT_EQ(router.config().arrivals_per_sec, 0);
  EXPECT_EQ(router.config().max_retries, 0);
  cluster.run_for(100 * msec);  // rate 0: generates nothing, crashes nothing
  EXPECT_EQ(router.generated(), 0u);
}

// A +inf rate used to pass validation (only negatives were clamped), and the
// tick's arrival accumulator then never drained: the tick looped forever.
// Non-finite rates now clamp to 0, through the config and through set_rate().
TEST(RouterConfigValidation, NonFiniteRatesClampToZero) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double rate : {kInf, -kInf, kNan}) {
    SCOPED_TRACE(rate);
    RouterConfig config;
    config.arrivals_per_sec = rate;
    EXPECT_EQ(config.validated().arrivals_per_sec, 0);

    Cluster cluster;
    cluster.add_host(small_host());
    RequestRouter router(cluster, config);
    cluster.add_component(&router);
    EXPECT_EQ(router.rate(), 0);
    cluster.run_for(10 * msec);

    router.set_rate(100);
    EXPECT_EQ(router.rate(), 100);
    router.set_rate(rate);
    EXPECT_EQ(router.rate(), 0);
    cluster.run_for(10 * msec);  // would hang on an unclamped +inf
    EXPECT_EQ(router.generated(), 0u);
  }
}

// --- fleet-wide retry budget -------------------------------------------------

// The budget's constants: a 100-token cap, 100 milli-tokens per success (10
// successes buy one retry) and a 2-token per-round floor.
TEST(AdmissionController, RetryBudgetArithmeticAndFloorRearm) {
  Cluster cluster;
  cluster.add_host(small_host(2, 4 * GiB));
  AdmissionController admission(cluster);
  cluster.add_component(&admission);

  // The budget starts at its cap; spending it dry denies further retries.
  EXPECT_EQ(admission.retry_tokens_milli(), 100000);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.allow_retry()) << i;
  }
  EXPECT_FALSE(admission.allow_retry());
  EXPECT_EQ(admission.retry_tokens_milli(), 0);
  EXPECT_EQ(admission.retries_allowed(), 100u);
  EXPECT_EQ(admission.retries_denied(), 1u);

  // Successes refill fractionally: 9 are not enough for a whole token, the
  // 10th is.
  for (int i = 0; i < 9; ++i) {
    admission.on_success();
  }
  EXPECT_FALSE(admission.allow_retry());
  admission.on_success();
  EXPECT_TRUE(admission.allow_retry());

  // The per-round floor re-arms a trickle even with zero successes.
  cluster.run_for(150 * msec);
  EXPECT_EQ(admission.retry_tokens_milli(), 2000);

  // And the cap bounds the stored burst no matter how many successes land.
  for (int i = 0; i < 1000; ++i) {
    admission.on_success();
  }
  EXPECT_EQ(admission.retry_tokens_milli(), 100000);
}

// With the budget dry, a refused request is dropped instead of multiplying
// into a retry storm across the fleet.
TEST(AdmissionController, RetryBudgetBoundsRetryAmplification) {
  Cluster cluster;
  cluster.add_host(small_host());
  ClusterScheduler scheduler(cluster);
  RouterConfig rc;
  rc.arrivals_per_sec = 0;
  rc.max_retries = 3;
  RequestRouter router(cluster, rc);
  cluster.add_component(&router);
  AdmissionController admission(cluster);
  cluster.add_component(&admission);
  admission.register_tenant("api", router);

  server::WebConfig web;
  web.service_cpu = 1 * sec;
  web.max_queue = 1;
  const int a = scheduler.place("requests", {"web-a", res(1000, 1 * GiB)},
                                web_replica(web));
  const int b = scheduler.place("requests", {"web-b", res(1000, 1 * GiB)},
                                web_replica(web));
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_TRUE(router.add_replica(a));
  ASSERT_TRUE(router.add_replica(b));

  // Fill both depth-1 queues (the budget is still at its cap), then drain
  // all but 2 tokens. No time passes, so the per-round floor never re-arms.
  router.inject(cluster.now());
  router.inject(cluster.now());
  EXPECT_EQ(router.routed(), 2u);
  for (int i = 0; i < 98; ++i) {
    ASSERT_TRUE(admission.allow_retry()) << i;
  }
  EXPECT_EQ(admission.retry_tokens_milli(), 2000);
  // Offer three doomed requests. Each wants one failover retry (two
  // replicas); the budget covers exactly two.
  for (int i = 0; i < 3; ++i) {
    router.inject(cluster.now());
  }
  EXPECT_EQ(router.dropped(), 3u);
  EXPECT_EQ(router.retries(), 2u);
  EXPECT_EQ(admission.retries_allowed(), 98u + 2u);
  EXPECT_EQ(admission.retries_denied(), 1u);
  EXPECT_EQ(admission.retry_tokens_milli(), 0);
  // Attempt accounting: 1 each for the two routed, 2 for the two retried
  // drops, 1 for the budget-denied drop.
  EXPECT_EQ(router.attempts(), 7u);
  EXPECT_EQ(router.generated(),
            router.routed() + router.dropped() + router.unroutable());
}

// --- adaptive concurrency limits ---------------------------------------------

TEST(AdmissionController, AdaptiveLimitCapsQueueAndRecovers) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  RouterConfig rc;
  rc.arrivals_per_sec = 1200;  // far beyond one replica's capacity
  rc.max_retries = 0;
  fleet.enable_router(rc);
  fleet.enable_admission();
  server::WebConfig web;
  web.service_cpu = 20 * msec;
  web.max_queue = 10000;  // without AIMD this absorbs minutes of doomed work
  const int pod = fleet.place_web_pod("effective", res(2000, 2 * GiB), web);
  ASSERT_GE(pod, 0);

  fleet.run(3 * sec);
  server::WorkerPoolServer* sink =
      fleet.cluster().pod(pod).workload->request_sink();
  ASSERT_NE(sink, nullptr);
  // The multiplicative decrease walked the limit far below its initial 64,
  // turning the 10k queue into fast local refusals.
  EXPECT_LE(static_cast<int>(sink->queue_limit()), 32);
  EXPECT_GE(static_cast<int>(sink->queue_limit()), 4);  // the AIMD floor
  EXPECT_LE(sink->queue_depth(), sink->queue_limit());
  EXPECT_GT(fleet.router()->dropped(), 0u)
      << "the bounded queue must refuse the excess";
  EXPECT_EQ(fleet.admission()->queue_limit_total(),
            static_cast<std::int64_t>(sink->queue_limit()));

  // Load returns to sane levels: additive increase recovers the headroom.
  fleet.router()->set_rate(20);
  fleet.run(5 * sec);
  EXPECT_GT(static_cast<int>(sink->queue_limit()), 64);
}

// --- trace-driven fixtures ---------------------------------------------------

load::DriverConfig one_pass() {
  load::DriverConfig config;
  config.repeat = false;  // go quiet after the trace: counters settle
  return config;
}

load::TraceSpec gentle_spec() {
  load::TraceSpec spec;
  spec.duration = 2 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 200;
  spec.diurnal_amplitude = 0.3;
  spec.seed = 11;
  spec.tenants.push_back({"api", 1.0, 1 * msec, 8 * msec, 1.3});
  return spec;
}

// --- observability -----------------------------------------------------------

TEST(AdmissionController, TraceSeriesAndControlFilesExposeState) {
  ClusterConfig cc;
  cc.enable_tracing = true;
  cc.trace_interval = 100 * msec;
  harness::FleetScenario fleet(cc);
  fleet.add_host(small_host());
  fleet.enable_admission();
  fleet.add_tenant("api");
  ASSERT_GE(fleet.place_tenant_web_pod("api", res(1000, 1 * GiB)), 0);
  fleet.use_trace(load::compile(gentle_spec()), one_pass());
  fleet.declare_slo("api");
  // Injection ends at 2s; the last admission round snapshots the settled
  // counters, so file contents equal the live telemetry.
  fleet.run(2 * sec + 1 * msec);

  const obs::TraceRecorder& trace = *fleet.cluster().trace();
  for (const std::string series :
       {"overload.retry_tokens_milli", "overload.retries_denied",
        "overload.queue_limit_total"}) {
    EXPECT_TRUE(trace.find(series).has_value()) << series;
  }

  const vfs::PseudoFs& fs = fleet.cluster().host(0).sysfs().host_fs();
  const auto read_int = [&](const std::string& path) {
    const auto contents = fs.read(path);
    EXPECT_TRUE(contents.has_value()) << path;
    return contents ? std::stoll(*contents) : -1;
  };
  const AdmissionController& adm = *fleet.admission();
  EXPECT_EQ(read_int("/sys/arv/admission/retries_denied"),
            static_cast<std::int64_t>(adm.retries_denied()));
  EXPECT_EQ(read_int("/sys/arv/admission/retry_tokens_milli"),
            adm.retry_tokens_milli());
  EXPECT_EQ(read_int("/sys/arv/admission/queue_limit_total"),
            adm.queue_limit_total());
  // The controller publishes nothing else: no per-tenant files.
  EXPECT_EQ(fs.list("/sys/arv/admission/").size(), 3u);
}

// --- pinned dispositions -----------------------------------------------------

/// A fixed two-tenant flash crowd past capacity, with the AIMD limits and the
/// retry budget attached and a host crash at the crowd's peak. Every request
/// disposition, the retry accounting, the AIMD limit total and each tenant's
/// completions are pinned to exact values: a change to the front door that
/// moves any request to a different disposition fails here.
TEST(Overload, FlashCrowdDispositionsArePinned) {
  ClusterConfig config;
  config.seed = 7;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < 3; ++i) {
    fleet.add_host(small_host());
  }
  fleet.enable_admission();
  RouterConfig rc;
  rc.max_retries = 2;
  fleet.add_tenant("api", rc);
  fleet.add_tenant("batch", rc);
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 48;
  for (const std::string tenant : {"api", "api", "api"}) {
    ASSERT_GE(fleet.place_tenant_web_pod(tenant, res(1000, 1 * GiB), web), 0);
  }
  const int batch_pod =
      fleet.place_tenant_web_pod("batch", res(1000, 1 * GiB), web);
  ASSERT_GE(batch_pod, 0);

  load::TraceSpec spec;
  spec.duration = 2 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 1200;
  load::FlashCrowd crowd;
  crowd.start = 600 * msec;
  crowd.ramp = 100 * msec;
  crowd.hold = 500 * msec;
  crowd.decay = 200 * msec;
  crowd.magnitude = 4.0;
  spec.flash_crowds.push_back(crowd);
  spec.seed = 21;
  spec.tenants.push_back({"api", 2.0, 1 * msec, 10 * msec, 1.3});
  spec.tenants.push_back({"batch", 1.0, 2 * msec, 16 * msec, 1.2});
  fleet.use_trace(load::compile(spec), one_pass());
  fleet.declare_slo("api");
  fleet.declare_slo("batch");
  fleet.enable_recovery();

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kHostCrash;
  crash.at = 900 * msec;
  // Batch's only replica dies: its requests are unroutable until failover.
  crash.host = fleet.cluster().pod(batch_pod).host;
  crash.duration = 500 * msec;
  plan.add(crash);
  fleet.enable_faults(plan);

  fleet.run(3 * sec);

  struct Pinned {
    const char* tenant;
    std::uint64_t generated, routed, dropped, unroutable, retries, completed;
  };
  const Pinned pinned[] = {
      {"api", 3175, 3042, 133, 0, 176, 3042},
      {"batch", 1598, 837, 270, 491, 0, 804},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.tenant);
    const RequestRouter& r = *fleet.tenant_router(p.tenant);
    EXPECT_EQ(r.generated(), r.routed() + r.dropped() + r.unroutable());
    EXPECT_EQ(r.generated(), p.generated);
    EXPECT_EQ(r.routed(), p.routed);
    EXPECT_EQ(r.dropped(), p.dropped);
    EXPECT_EQ(r.unroutable(), p.unroutable);
    EXPECT_EQ(r.retries(), p.retries);
    EXPECT_EQ(r.aggregate().completed, p.completed);
  }
  const AdmissionController& adm = *fleet.admission();
  EXPECT_EQ(adm.retries_denied(), 49u);
  EXPECT_EQ(adm.queue_limit_total(), 192);
  EXPECT_EQ(fleet.cluster().host_crashes(), 1u);
}

// --- the metastable-failure scenario -----------------------------------------

/// Flash crowd (4x offered load) colliding with a host crash at the peak —
/// the classic metastable trigger — with the AIMD limits and the retry budget
/// armed. The guards must keep every conservation identity, bound every live
/// queue by its limit, stop retries from amplifying the crowd, and keep each
/// tenant from collapsing.
TEST(Overload, MetastableFlashCrowdIsContainedByGuards) {
  ClusterConfig config;
  config.seed = 42;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < 4; ++i) {
    fleet.add_host(small_host());
  }
  fleet.enable_admission();
  RouterConfig rc;
  rc.max_retries = 2;
  fleet.add_tenant("critical", rc);
  fleet.add_tenant("batch", rc);
  fleet.add_tenant("besteffort", rc);
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 32;
  EXPECT_GE(fleet.place_tenant_web_pod("critical", res(1000, 1 * GiB), web),
            0);
  EXPECT_GE(fleet.place_tenant_web_pod("critical", res(1000, 1 * GiB), web),
            0);
  EXPECT_GE(fleet.place_tenant_web_pod("batch", res(1000, 1 * GiB), web), 0);
  EXPECT_GE(fleet.place_tenant_web_pod("besteffort", res(1000, 1 * GiB), web),
            0);

  load::TraceSpec spec;
  spec.duration = 3 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 900;
  spec.diurnal_amplitude = 0.2;
  load::FlashCrowd crowd;
  crowd.start = 1 * sec;
  crowd.ramp = 200 * msec;
  crowd.hold = 600 * msec;
  crowd.decay = 300 * msec;
  crowd.magnitude = 4.0;
  spec.flash_crowds.push_back(crowd);
  spec.seed = 77;
  spec.tenants.push_back({"critical", 2.0, 1 * msec, 10 * msec, 1.3});
  spec.tenants.push_back({"batch", 1.0, 2 * msec, 16 * msec, 1.2});
  spec.tenants.push_back({"besteffort", 1.0, 1 * msec, 8 * msec, 1.3});
  fleet.use_trace(load::compile(spec), one_pass());

  load::SloTarget crit_slo;
  crit_slo.availability_permille = 999;
  crit_slo.p99_target = 400 * msec;
  fleet.declare_slo("critical", crit_slo);
  load::SloTarget batch_slo;
  batch_slo.availability_permille = 955;
  batch_slo.p99_target = 800 * msec;
  fleet.declare_slo("batch", batch_slo);
  load::SloTarget be_slo;
  be_slo.availability_permille = 900;
  be_slo.p99_target = 800 * msec;
  fleet.declare_slo("besteffort", be_slo);

  DetectorConfig detector;
  detector.period = 100 * msec;
  detector.miss_threshold = 2;
  fleet.enable_recovery(detector);

  // The metastable trigger: a host dies right at the crowd's peak.
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kHostCrash;
  crash.at = 1300 * msec;
  crash.host = 1;
  crash.duration = 800 * msec;  // reboots; recovery restores its pods
  plan.add(crash);
  fleet.enable_faults(plan);

  fleet.run(6 * sec);

  const AdmissionController& adm = *fleet.admission();
  std::uint64_t retries = 0;
  std::uint64_t attempts = 0;
  std::uint64_t generated = 0;
  std::uint64_t unroutable = 0;
  for (const std::string tenant : {"critical", "batch", "besteffort"}) {
    SCOPED_TRACE(tenant);
    const RequestRouter& r = *fleet.tenant_router(tenant);
    EXPECT_EQ(r.generated(), r.routed() + r.dropped() + r.unroutable());
    std::uint64_t lost = 0;
    for (int i = 0; i < r.replica_count(); ++i) {
      const Pod& pod = fleet.cluster().pod(r.replica_pod(i));
      lost += pod.lost;
      if (const server::WorkerPoolServer* sink =
              pod.workload == nullptr ? nullptr
                                      : pod.workload->request_sink()) {
        EXPECT_LE(sink->queue_depth(), sink->queue_limit());
      }
    }
    EXPECT_EQ(r.routed(), r.aggregate().completed + r.queued() + lost);
    retries += r.retries();
    attempts += r.attempts();
    generated += r.generated();
    unroutable += r.unroutable();
  }
  ASSERT_GT(generated, 0u);
  // Every retry was paid for with a budget token, and each routable request
  // made one first attempt plus its retries: retries never multiplied load.
  EXPECT_EQ(retries, adm.retries_allowed());
  EXPECT_EQ(attempts, generated - unroutable + retries);

  // The crash was real and recovered from.
  EXPECT_EQ(fleet.cluster().host_crashes(), 1u);
  EXPECT_GT(fleet.cluster().restarts() + fleet.cluster().failovers(), 0u);
  EXPECT_TRUE(fleet.injector()->done());

  // The flash crowd offers 4x capacity for over a second while a quarter of
  // the fleet is down: some damage is physics. The floor only rules out a
  // collapse.
  for (const std::string tenant : {"critical", "batch", "besteffort"}) {
    SCOPED_TRACE(tenant);
    EXPECT_GE(fleet.slo()->availability_permille(tenant), 750);
  }
}

// --- seeded config robustness ------------------------------------------------

/// Configs the robustness sweep draws; scales with ARV_CHAOS_ITERS like the
/// chaos suite (CI runs 200).
int config_seeds() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  const int iters = env == nullptr ? 0 : std::atoi(env);
  return iters > 0 ? iters : 5;
}

/// Random RouterConfig fields, type extremes included, on a short two-host
/// fleet with a host crash and the overload guards armed. validated() must
/// turn every draw into a config the router runs cleanly under the guards: no
/// abort, no hang, no signed overflow (the sanitizer build checks the last). A finite arrival
/// rate is honoured as offered load, so finite draws stay below what two
/// hosts absorb in test time; the non-finite rates are the extremes.
TEST(OverloadConfig, SeededExtremeConfigsRunCleanly) {
  constexpr int kMinInt = std::numeric_limits<int>::min();
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  int runs_with_retries = 0;
  for (int seed = 1; seed <= config_seeds(); ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto pick_int = [&rng](int typical) {
      const int choices[] = {kMinInt, -1, 0, 1, typical, kMaxInt};
      return choices[rng.uniform_int(0, 5)];
    };
    const auto pick_rate = [&rng, kInf, kNan] {
      const double finite = rng.uniform(100.0, 1500.0);
      const double choices[] = {kInf, -kInf, kNan, -1.0, 0.0, finite, finite};
      return choices[rng.uniform_int(0, 6)];
    };

    RouterConfig rc;
    rc.arrivals_per_sec = pick_rate();
    rc.max_retries = pick_int(2);

    ClusterConfig cc;
    cc.seed = static_cast<std::uint64_t>(seed);
    harness::FleetScenario fleet(cc);
    fleet.add_host(small_host());
    fleet.add_host(small_host());
    fleet.enable_router(rc);
    fleet.enable_admission();
    fleet.enable_recovery();
    server::WebConfig web;
    web.service_cpu = 20 * msec;
    web.max_queue = 16;
    for (int i = 0; i < 3; ++i) {
      ASSERT_GE(fleet.place_web_pod("effective", res(500, 512 * MiB), web), 0);
    }
    FaultPlan plan;
    FaultEvent crash;
    crash.kind = FaultEvent::Kind::kHostCrash;
    crash.at = 300 * msec;
    crash.host = 1;
    crash.duration = 200 * msec;
    plan.add(crash);
    fleet.enable_faults(plan);

    fleet.run(400 * msec);
    fleet.router()->set_rate(pick_rate());
    fleet.run(400 * msec);

    const RequestRouter& r = *fleet.router();
    const AdmissionController& adm = *fleet.admission();
    EXPECT_TRUE(std::isfinite(r.rate()));
    EXPECT_GE(r.rate(), 0);
    EXPECT_EQ(r.generated(), r.routed() + r.dropped() + r.unroutable());
    EXPECT_GE(adm.retry_tokens_milli(), 0);
    EXPECT_LE(adm.retry_tokens_milli(), 100 * 1000);  // the 100-token cap
    EXPECT_GE(adm.queue_limit_total(), 0);
    runs_with_retries += r.retries() > 0 ? 1 : 0;
  }
  // The sweep reaches the retry path, not only idle fleets.
  EXPECT_GT(runs_with_retries, 0);
}

}  // namespace
}  // namespace arv::cluster
