// Lockstep-engine determinism battery (`ctest -L parallel`): the cluster's
// host-phase shortcuts must be invisible in every observable. Fleets — calm
// and under randomized fault chaos — are replayed with the idle-host skip on
// and off; traces must come out byte-identical (bar the skip counter's own
// column) and every conservation counter equal. Syncing every host every
// tick, analytic idle catch-up, and fault ordering against the host phase
// are pinned too, as are the touch contract (the awake list holds exactly
// the hosts at cluster time, checked after every step of every fleet) and
// the index order in which awake hosts step. Seed coverage scales with
// ARV_CHAOS_ITERS like the chaos suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/faults.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/recovery.h"
#include "src/cluster/router.h"
#include "src/container/host.h"
#include "src/harness/scenario.h"
#include "tests/testing/touch_contract.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

int sweep_iterations() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  if (env == nullptr) {
    return 3;
  }
  const int iters = std::atoi(env);
  return iters > 0 ? iters : 3;
}

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host() {
  container::HostConfig config;
  config.cpus = 4;
  config.ram = 8 * GiB;
  return config;
}

/// Everything a run observably produces. Two runs of the same fleet must
/// compare equal on all of it, whatever the skip setting — bar the skip
/// counter itself.
struct FleetResult {
  std::string trace;
  std::uint64_t hosts_skipped = 0;
  std::uint64_t migrations = 0;
  std::uint64_t pod_crashes = 0;
  std::uint64_t host_crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t generated = 0;
  std::uint64_t routed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t completed = 0;
  std::vector<CpuTime> slack_totals;  ///< per host, analytic (no sync)
};

struct FleetOptions {
  bool skip_idle_hosts = true;
  int hosts = 4;
  int busy_hosts = 2;           ///< hosts that receive pods; the rest idle
  std::uint64_t chaos_seed = 0; ///< 0 = fault-free
  SimDuration run = 4 * sec;
};

/// One full fleet: router + recovery + rebalancer + web replicas and hogs on
/// the first `busy_hosts` hosts, optional randomized fault plan.
FleetResult run_fleet(const FleetOptions& options) {
  ClusterConfig config;
  config.seed = 42;
  config.enable_tracing = true;
  config.trace_interval = 10 * msec;
  config.skip_idle_hosts = options.skip_idle_hosts;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < options.hosts; ++i) {
    fleet.add_host(small_host());
  }
  RouterConfig router;
  router.arrivals_per_sec = 300;
  router.max_retries = 2;
  fleet.enable_router(router);
  DetectorConfig detector;
  detector.period = 100 * msec;
  detector.miss_threshold = 2;
  RestartConfig restart;
  restart.period = 50 * msec;
  restart.backoff_base = 100 * msec;
  restart.backoff_cap = 1 * sec;
  fleet.enable_recovery(detector, restart);
  RebalanceConfig rebalance;
  rebalance.period = 250 * msec;
  fleet.enable_rebalancer(rebalance);

  Cluster& cluster = fleet.cluster();
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 100;
  const int busy = std::min(options.busy_hosts, options.hosts);
  for (int h = 0; h < busy; ++h) {
    const int pod = cluster.create_pod(
        h, {"web-" + std::to_string(h), res(1000, 1 * GiB)}, web_replica(web));
    EXPECT_TRUE(fleet.router()->add_replica(pod));
  }
  cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 60 * sec));
  if (options.chaos_seed != 0) {
    Rng chaos_rng(options.chaos_seed);
    ChaosOptions chaos;
    chaos.horizon = options.run / 2;  // leave a recovery tail
    fleet.enable_faults(FaultPlan::random(chaos_rng, chaos, options.hosts,
                                          cluster.pod_count()));
  }
  EXPECT_TRUE(testing::RunCheckingTouchContract(cluster, options.run));

  FleetResult result;
  result.trace = cluster.trace()->to_csv();
  result.hosts_skipped = cluster.hosts_skipped();
  result.migrations = cluster.migrations();
  result.pod_crashes = cluster.pod_crashes();
  result.host_crashes = cluster.host_crashes();
  result.restarts = cluster.restarts();
  result.failovers = cluster.failovers();
  const RequestRouter& r = *fleet.router();
  result.generated = r.generated();
  result.routed = r.routed();
  result.dropped = r.dropped();
  result.unroutable = r.unroutable();
  result.completed = r.aggregate().completed;
  // Request conservation must hold with the skip on and off, not only in
  // the configuration the chaos suite verifies.
  EXPECT_EQ(result.generated,
            result.routed + result.dropped + result.unroutable);
  for (int i = 0; i < cluster.host_count(); ++i) {
    result.slack_totals.push_back(cluster.host_slack_total(i));
  }
  return result;
}

/// Drop one column (by header name) from a trace CSV — used to compare
/// skip-on vs skip-off runs, whose only legitimate difference is the
/// cluster.hosts_skipped series itself.
std::string strip_column(const std::string& csv, const std::string& column) {
  std::istringstream in(csv);
  std::string line;
  std::string out;
  std::size_t drop = std::string::npos;
  bool header = true;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string field;
    std::vector<std::string> row;
    while (std::getline(fields, field, ',')) {
      row.push_back(field);
    }
    if (header) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i] == column) {
          drop = i;
        }
      }
      EXPECT_NE(drop, std::string::npos) << "column not found: " << column;
      header = false;
    }
    std::string joined;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i == drop) {
        continue;
      }
      if (!joined.empty()) {
        joined += ',';
      }
      joined += row[i];
    }
    out += joined;
    out += '\n';
  }
  return out;
}

/// The skip's exactness contract: a skip-on run equals its skip-off twin on
/// every observable — per-host slack series of frozen hosts included — and
/// only the skip counter's own column may differ.
void expect_skip_invariant(const FleetResult& on, const FleetResult& off) {
  EXPECT_EQ(off.hosts_skipped, 0u);
  EXPECT_EQ(strip_column(on.trace, "cluster.hosts_skipped"),
            strip_column(off.trace, "cluster.hosts_skipped"));
  EXPECT_EQ(on.migrations, off.migrations);
  EXPECT_EQ(on.pod_crashes, off.pod_crashes);
  EXPECT_EQ(on.host_crashes, off.host_crashes);
  EXPECT_EQ(on.restarts, off.restarts);
  EXPECT_EQ(on.failovers, off.failovers);
  EXPECT_EQ(on.generated, off.generated);
  EXPECT_EQ(on.routed, off.routed);
  EXPECT_EQ(on.dropped, off.dropped);
  EXPECT_EQ(on.unroutable, off.unroutable);
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_EQ(on.slack_totals, off.slack_totals);
}

// --- the quiescence fast path -----------------------------------------------

TEST(ParallelDeterminism, IdleHostSkipIsExact) {
  FleetOptions options;
  options.hosts = 12;
  options.busy_hosts = 2;
  options.skip_idle_hosts = true;
  const FleetResult on = run_fleet(options);
  options.skip_idle_hosts = false;
  const FleetResult off = run_fleet(options);
  ASSERT_FALSE(on.trace.empty());
  // Ten of twelve hosts never receive work: the fast path must have fired
  // heavily with the skip on, and not at all with it off.
  EXPECT_GT(on.hosts_skipped, 0u);
  expect_skip_invariant(on, off);
}

TEST(ParallelDeterminism, RandomizedFleetsAndFaultPlansAreSkipInvariant) {
  const int iters = sweep_iterations();
  std::uint64_t skipped = 0;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0x9a7a11e1u + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    FleetOptions options;
    // Fleet shape varies with the seed so the sweep covers different
    // host/pod/fault geometries, not one fixture many times. Crashes empty
    // hosts and reboots wake them, so frozen hosts are touched, synced and
    // refrozen mid-run.
    options.hosts = 3 + static_cast<int>(seed % 5);
    options.busy_hosts = 1 + static_cast<int>(seed % 3);
    options.chaos_seed = seed;
    options.skip_idle_hosts = true;
    const FleetResult on = run_fleet(options);
    options.skip_idle_hosts = false;
    expect_skip_invariant(on, run_fleet(options));
    skipped += on.hosts_skipped;
  }
  // The sweep must exercise the fast path, not pass vacuously.
  EXPECT_GT(skipped, 0u);
}

TEST(ParallelDeterminism, AdvanceIdleMatchesTickByTickExactly) {
  container::HostConfig config;
  config.cpus = 8;
  config.ram = 16 * GiB;
  container::Host stepped(config);
  container::Host jumped(config);
  ASSERT_TRUE(jumped.quiescent());
  const SimDuration span = 500 * msec;
  stepped.run_for(span);
  jumped.advance_idle(span);
  EXPECT_EQ(stepped.now(), jumped.now());
  EXPECT_EQ(stepped.engine().ticks_executed(), jumped.engine().ticks_executed());
  EXPECT_EQ(stepped.scheduler().total_slack(), jumped.scheduler().total_slack());
  EXPECT_EQ(stepped.scheduler().last_tick_slack(),
            jumped.scheduler().last_tick_slack());
  EXPECT_EQ(stepped.scheduler().nr_running(), jumped.scheduler().nr_running());
  // Bit-exact, not approximately equal: accrue_idle replays the loadavg
  // decay sample by sample so later arithmetic diverges nowhere.
  EXPECT_EQ(stepped.scheduler().loadavg(), jumped.scheduler().loadavg());
  EXPECT_EQ(stepped.memory().free_memory(), jumped.memory().free_memory());
}

/// Logs its host's index on every tick of that host.
class StepLog final : public sim::TickComponent {
 public:
  StepLog(int host, std::vector<int>& log) : host_(host), log_(log) {}

  void tick(SimTime /*now*/, SimDuration /*dt*/) override {
    log_.push_back(host_);
  }
  std::string name() const override { return "test.step_log"; }

 private:
  int host_;
  std::vector<int>& log_;
};

TEST(ParallelDeterminism, AwakeHostsStepInIndexOrder) {
  std::vector<int> log;
  StepLog five(5, log);
  StepLog two(2, log);
  Cluster cluster;
  for (int i = 0; i < 8; ++i) {
    cluster.add_host(small_host());
  }
  cluster.step();  // empty hosts are quiescent: the whole fleet freezes
  ASSERT_TRUE(cluster.awake_hosts().empty());
  // Touched in reverse index order, so each wake appends behind the other;
  // the logs keep their hosts awake from here on.
  cluster.host(5).engine().add_component(&five);
  cluster.host(2).engine().add_component(&two);
  EXPECT_EQ(cluster.awake_hosts(), (std::vector<int>{5, 2}));
  cluster.step();
  cluster.step();
  EXPECT_EQ(log, (std::vector<int>{2, 5, 2, 5}));
  EXPECT_EQ(cluster.hosts_skipped(), 8u + 6u + 6u);
}

// --- fault ordering vs the host phase ---------------------------------------

/// A serial-phase spy registered *before* the fault injector: at every
/// component round it demands that each host — through the syncing accessor,
/// the same single serialization point the fault machinery uses — stands
/// exactly at cluster time. If the host phase ever leaked a half-stepped or
/// lagging host into the serial phases, a crash fired right after this probe
/// would observe it; this pins that it cannot.
class PhaseProbe final : public sim::TickComponent {
 public:
  explicit PhaseProbe(Cluster& cluster) : cluster_(cluster) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    ++rounds_;
    EXPECT_EQ(now, cluster_.now());
    for (int i = 0; i < cluster_.host_count(); ++i) {
      EXPECT_EQ(cluster_.host(i).now(), now) << "host " << i;
    }
  }
  std::string name() const override { return "test.phase_probe"; }
  SimDuration tick_period() const override { return 0; }

  std::uint64_t rounds() const { return rounds_; }

 private:
  Cluster& cluster_;
  std::uint64_t rounds_ = 0;
};

TEST(ParallelDeterminism, FaultsObserveFullySteppedHostsOnly) {
  auto run = [](bool with_probe) {
    ClusterConfig config;
    config.seed = 42;
    config.enable_tracing = true;
    config.trace_interval = 10 * msec;
    harness::FleetScenario fleet(config);
    for (int i = 0; i < 4; ++i) {
      fleet.add_host(small_host());
    }
    fleet.enable_router(200.0);
    fleet.enable_recovery();
    Cluster& cluster = fleet.cluster();
    server::WebConfig web;
    web.service_cpu = 5 * msec;
    for (int h = 0; h < 2; ++h) {
      const int pod = cluster.create_pod(
          h, {"web-" + std::to_string(h), res(1000, 1 * GiB)},
          web_replica(web));
      EXPECT_TRUE(fleet.router()->add_replica(pod));
    }
    PhaseProbe probe(cluster);
    if (with_probe) {
      cluster.add_component(&probe);  // before the injector => runs first
    }
    FaultPlan plan;
    plan.add({FaultEvent::Kind::kPodCrash, 200 * msec, -1, 0, 0, 0, 0});
    plan.add({FaultEvent::Kind::kHostCrash, 300 * msec, 1, -1, 500 * msec, 0, 0});
    plan.add({FaultEvent::Kind::kMonitorStall, 350 * msec, 3, -1, 200 * msec, 0, 0});
    plan.add({FaultEvent::Kind::kMemoryPressure, 400 * msec, 2, -1, 300 * msec, 0, 800});
    fleet.enable_faults(plan);
    fleet.run(2 * sec);
    EXPECT_EQ(probe.rounds() > 0, with_probe);
    EXPECT_TRUE(fleet.injector()->done());
    EXPECT_EQ(cluster.host_crashes(), 1u);
    EXPECT_TRUE(cluster.host_up(1));  // rebooted
    return cluster.trace()->to_csv();
  };
  // The probe syncs every host every tick; that must not perturb anything
  // (sync is an exact replay), so the run matches one without the probe.
  const std::string probed = run(true);
  const std::string plain = run(false);
  EXPECT_EQ(probed, plain);
  EXPECT_FALSE(probed.empty());
}

}  // namespace
}  // namespace arv::cluster
