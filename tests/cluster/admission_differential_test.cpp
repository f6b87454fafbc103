// AdmissionController and RequestRouter::aggregate() against a reference:
// the per-round merges they did before the router kept a running record.
// The reference reads only the public API. Every round it rebuilds each
// replica pod's lifetime latency stream as Pod::archived merged with the
// live sink's stats, takes the round's p50 as a percentile over the samples
// recorded since its snapshot of the previous round, and runs the AIMD step
// on it. It ticks right after the controller, so it sees the state the
// controller saw, and compares
//   - the router's record with the merge over every enrolled replica, and
//   - every live sink's queue_limit() with its own limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/overload.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/router.h"
#include "src/server/server_runtime.h"
#include "src/sim/engine.h"
#include "src/util/latency_histogram.h"
#include "src/util/rng.h"

namespace arv::cluster {
namespace {

using namespace arv::units;
using util::LatencyHistogram;

// The controller's round and AIMD constants (overload.cpp).
constexpr SimDuration kPeriod = 100 * msec;
constexpr int kInitialLimit = 64;
constexpr int kMinLimit = 4;
constexpr int kLimitIncrease = 4;
constexpr std::int64_t kLimitDecreasePermille = 700;
constexpr std::int64_t kLatencyTolerancePermille = 2000;
constexpr int kMinWindowRounds = 30;

constexpr int kHosts = 4;

server::WorkerPoolServer* live_sink(Cluster& cluster, int pod_id) {
  Pod& pod = cluster.pod(pod_id);
  return pod.workload == nullptr ? nullptr : pod.workload->request_sink();
}

/// Samples of `h` in buckets 0..i.
std::uint64_t up_to(const LatencyHistogram& h, std::size_t i) {
  return h.count() - h.count_above(LatencyHistogram::bucket_upper(i));
}

/// The delta view admission used, over the public surface: the nearest-rank
/// percentile of the samples `now` holds beyond its earlier snapshot `prev`,
/// reported as the bucket's upper bound clamped to `now`'s (lifetime) max.
std::int64_t percentile_since(const LatencyHistogram& now,
                              const LatencyHistogram& prev, double p) {
  const std::uint64_t window = now.count() - prev.count();
  if (window == 0) {
    return 0;
  }
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(window))));
  // The first bucket whose cumulative window count reaches the rank; that
  // count never falls as the bucket index grows.
  std::size_t lo = 0;
  std::size_t hi = LatencyHistogram::kBucketCount - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (up_to(now, mid) - up_to(prev, mid) >= rank) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::min(LatencyHistogram::bucket_upper(lo), now.max());
}

void expect_same_stats(const server::RequestStats& record,
                       const server::RequestStats& merged) {
  EXPECT_EQ(record.completed, merged.completed);
  EXPECT_EQ(record.arrived, merged.arrived);
  EXPECT_EQ(record.dropped, merged.dropped);
  const LatencyHistogram& a = record.latency_hist;
  const LatencyHistogram& b = merged.latency_hist;
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
  }
}

/// What a run exercised.
struct Coverage {
  std::uint64_t rounds = 0;
  std::uint64_t increases = 0;
  std::uint64_t decreases = 0;
  /// Rounds with one completion whose value lies below both its bucket's
  /// upper bound and the pod's lifetime max: the round's own max would
  /// clamp its p50 lower than the lifetime stream does.
  std::uint64_t one_sample_traps = 0;
};

/// The pre-record admission rule, ticking right after the controller.
class ReferenceAdmission : public sim::TickComponent {
 public:
  ReferenceAdmission(Cluster& cluster, RequestRouter& router,
                     Coverage& coverage)
      : cluster_(cluster), router_(router), coverage_(coverage) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    last_round_ = now;
    ++coverage_.rounds;
    server::RequestStats merged;
    for (int i = 0; i < router_.replica_count(); ++i) {
      const int pod_id = router_.replica_pod(i);
      SCOPED_TRACE(pod_id);
      const Pod& pod = cluster_.pod(pod_id);
      server::WorkerPoolServer* sink = live_sink(cluster_, pod_id);
      merged.merge(pod.archived);
      if (sink != nullptr) {
        merged.merge(sink->stats());
      }
      State& st = states_[pod_id];
      LatencyHistogram hist = pod.archived.latency_hist;
      if (sink != nullptr) {
        hist.merge(sink->stats().latency_hist);
      }
      std::int64_t round_p50 = -1;
      if (hist.count() != st.prev.count()) {
        round_p50 = percentile_since(hist, st.prev, 50.0);
        const std::int64_t only = hist.sum() - st.prev.sum();
        if (hist.count() - st.prev.count() == 1 && only < round_p50) {
          ++coverage_.one_sample_traps;
        }
        st.prev = hist;
      }
      if (st.limit == 0) {
        st.limit = kInitialLimit;
      }
      if (round_p50 >= 0) {
        st.window.push_back(round_p50);
        while (static_cast<int>(st.window.size()) > kMinWindowRounds) {
          st.window.pop_front();
        }
        const std::int64_t min_p50 =
            *std::min_element(st.window.begin(), st.window.end());
        if (round_p50 * 1000 <= min_p50 * kLatencyTolerancePermille) {
          st.limit += kLimitIncrease;
          ++coverage_.increases;
        } else {
          st.limit = std::max<int>(
              kMinLimit,
              static_cast<int>(static_cast<std::int64_t>(st.limit) *
                               kLimitDecreasePermille / 1000));
          ++coverage_.decreases;
        }
      } else if (sink != nullptr && sink->queue_depth() == 0) {
        st.limit += kLimitIncrease;
      }
      st.limit = std::max(st.limit, kMinLimit);
      if (sink != nullptr) {
        st.limit = std::min(st.limit, static_cast<int>(kMaxQueue));
        EXPECT_EQ(sink->queue_limit(), static_cast<std::size_t>(st.limit));
      }
    }
    expect_same_stats(router_.aggregate(), merged);
  }
  std::string name() const override { return "test.reference_admission"; }
  SimDuration tick_period() const override { return kPeriod; }

  SimTime last_round() const { return last_round_; }

  /// WebConfig's default accept-queue bound: the clamp the sink applies.
  static constexpr std::size_t kMaxQueue = server::WebConfig{}.max_queue;

 private:
  struct State {
    LatencyHistogram prev;  ///< the lifetime stream at the last round
    std::deque<std::int64_t> window;
    int limit = 0;
  };

  Cluster& cluster_;
  RequestRouter& router_;
  Coverage& coverage_;
  std::map<int, State> states_;
  SimTime last_round_ = -1;
};

/// A cluster of kHosts hosts, one router (arrivals driven by the test), its
/// admission controller and the reference, both ticking every round.
struct Fleet {
  explicit Fleet(int max_retries)
      : router(cluster, config(max_retries)),
        admission(cluster),
        reference(cluster, router, coverage) {
    for (int h = 0; h < kHosts; ++h) {
      container::HostConfig host;
      host.cpus = 4;
      host.ram = 16 * GiB;
      cluster.add_host(host);
    }
    admission.register_tenant("api", router);
  }

  /// Start the rounds: the controller first, the reference right after it.
  void arm() {
    cluster.add_component(&admission);
    cluster.add_component(&reference);
  }

  int create_pod(int host) {
    container::K8sResources res;
    res.request_millicpu = 500;
    res.request_memory = 256 * MiB;
    server::WebConfig web;
    web.service_cpu = 2 * msec;
    return cluster.create_pod(host, {"", res}, web_replica(web));
  }

  static RouterConfig config(int max_retries) {
    RouterConfig config;
    config.arrivals_per_sec = 0;
    config.max_retries = max_retries;
    return config;
  }

  Coverage coverage;
  Cluster cluster;
  RequestRouter router;
  AdmissionController admission;
  ReferenceAdmission reference;
};

/// Seeded churn totals, summed over the sweep.
struct Churn {
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t migrations = 0;
  std::uint64_t landings_mid_round = 0;
  std::uint64_t enrolled_with_history = 0;
  std::uint64_t dropped = 0;
};

void run_trial(std::uint64_t seed, Coverage& coverage, Churn& churn) {
  SCOPED_TRACE(seed);
  Rng rng(seed);
  Fleet fleet(static_cast<int>(rng.uniform_int(0, 2)));
  Cluster& cluster = fleet.cluster;

  std::vector<int> enrolled;
  const int replicas = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < replicas; ++i) {
    const int pod = fleet.create_pod(static_cast<int>(
        rng.uniform_int(0, kHosts - 1)));
    ASSERT_TRUE(fleet.router.add_replica(pod));
    enrolled.push_back(pod);
  }
  // Pods enrolled later, with history: requests served before enrollment,
  // some of them archived by a crash and a restart in place.
  std::vector<int> late;
  const int late_count = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < late_count; ++i) {
    late.push_back(fleet.create_pod(static_cast<int>(
        rng.uniform_int(0, kHosts - 1))));
  }
  const auto serve_directly = [&](int pod) {
    server::WorkerPoolServer* s = live_sink(cluster, pod);
    const std::int64_t n = rng.uniform_int(1, 30);
    for (std::int64_t k = 0; k < n; ++k) {
      s->inject_request(cluster.now(), rng.uniform_int(0, 6) * msec);
    }
  };
  for (const int pod : late) {
    serve_directly(pod);
  }
  for (int s = 0; s < 40; ++s) {
    cluster.step();
  }
  for (const int pod : late) {
    if (rng.chance(0.5)) {
      cluster.crash_pod(pod);
      cluster.restart_pod(pod);
      serve_directly(pod);
    }
  }
  fleet.arm();

  std::vector<CpuTime> costs;
  const std::int64_t steps = 3000;
  for (std::int64_t step = 0; step < steps; ++step) {
    // --- churn between ticks -------------------------------------------------
    if (rng.chance(0.015)) {
      const int pod = enrolled[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(enrolled.size()) - 1))];
      const Pod& p = cluster.pod(pod);
      if (p.running() && rng.chance(0.5)) {
        cluster.crash_pod(pod);
        ++churn.crashes;
      } else if (p.running()) {
        cluster.migrate_pod(pod, static_cast<int>(
            (p.host + rng.uniform_int(1, kHosts - 1)) % kHosts));
        ++churn.migrations;
      } else if (p.failed) {
        cluster.restart_pod(pod);
        ++churn.restarts;
      }
    }
    if (!late.empty() && rng.chance(0.004)) {
      const int pod = late.back();
      if (cluster.pod(pod).running()) {
        if (rng.chance(0.5)) {
          serve_directly(pod);  // queued, not yet served, at enrollment
        }
        ASSERT_TRUE(fleet.router.add_replica(pod));
        enrolled.push_back(pod);
        late.pop_back();
        ++churn.enrolled_with_history;
      }
    }

    // --- one batch: bursts past the fleet's capacity, then quiet -----------
    const bool burst = (step / 400) % 2 == 1;
    costs.assign(static_cast<std::size_t>(
                     rng.uniform_int(0, burst ? 12 : 2)), 0);
    for (CpuTime& cost : costs) {
      cost = rng.uniform_int(0, 6) * msec;  // 0 = the sink's service_cpu
    }
    fleet.router.inject_batch(cluster.now(), costs.data(), costs.size());

    // --- one tick: completions, landings, every 100 ms a round -------------
    std::vector<int> in_flight;
    for (const int pod : enrolled) {
      if (cluster.pod(pod).in_flight()) {
        in_flight.push_back(pod);
      }
    }
    cluster.step();
    for (const int pod : in_flight) {
      if (cluster.pod(pod).running() &&
          fleet.reference.last_round() != cluster.now()) {
        ++churn.landings_mid_round;
      }
    }
    if (testing::Test::HasFailure()) {
      return;  // one diverged round is enough; the rest would only cascade
    }
  }
  churn.dropped += fleet.router.aggregate().dropped;
  coverage.rounds += fleet.coverage.rounds;
  coverage.increases += fleet.coverage.increases;
  coverage.decreases += fleet.coverage.decreases;
  coverage.one_sample_traps += fleet.coverage.one_sample_traps;
}

TEST(AdmissionDifferential, RecordAndLimitsMatchTheMergedStreamUnderChurn) {
  Coverage coverage;
  Churn churn;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_trial(seed, coverage, churn);
    if (testing::Test::HasFailure()) {
      return;
    }
  }
  // The sweep must exercise what it claims to.
  EXPECT_GT(coverage.rounds, 300u);
  EXPECT_GT(coverage.increases, 0u);
  EXPECT_GT(coverage.decreases, 0u);
  EXPECT_GT(coverage.one_sample_traps, 0u);
  EXPECT_GT(churn.crashes, 0u);
  EXPECT_GT(churn.restarts, 0u);
  EXPECT_GT(churn.migrations, 0u);
  EXPECT_GT(churn.landings_mid_round, 0u);
  EXPECT_GT(churn.enrolled_with_history, 0u);
  EXPECT_GT(churn.dropped, 0u);
}

TEST(AdmissionDifferential, OneSampleRoundsBelowTheLifetimeMax) {
  // One replica, one request a round. The first round sees nothing (an idle
  // round: +4). Round 1 serves a 5 ms request, rounds
  // 2 and 3 one request of 1 ms and one of 2 ms. The lifetime stream reads
  // them as their buckets' upper bounds, 1023 and 2047 us: 2047 > 2 * 1023,
  // so round 3 is congested and the limit falls. Clamped with each round's
  // own max they would read 1000 and 2000, a calm round.
  Fleet fleet(0);
  const int pod = fleet.create_pod(0);
  ASSERT_TRUE(fleet.router.add_replica(pod));
  fleet.arm();
  const auto next_round = [&] {
    const std::uint64_t rounds = fleet.coverage.rounds;
    while (fleet.coverage.rounds == rounds) {
      fleet.cluster.step();
    }
  };
  next_round();
  for (const CpuTime cost : {5 * msec, 1 * msec, 2 * msec}) {
    fleet.router.inject(fleet.cluster.now(), cost);
    const std::uint64_t served = fleet.router.aggregate().completed;
    next_round();
    ASSERT_EQ(fleet.router.aggregate().completed, served + 1);
  }
  const LatencyHistogram& hist = fleet.router.aggregate().latency_hist;
  EXPECT_EQ(hist.max(), 5000);
  EXPECT_EQ(hist.min(), 1000);
  EXPECT_EQ(fleet.coverage.one_sample_traps, 2u);
  EXPECT_EQ(fleet.coverage.decreases, 1u);
  EXPECT_EQ(live_sink(fleet.cluster, pod)->queue_limit(),
            static_cast<std::size_t>((kInitialLimit + kLimitIncrease * 3) *
                                     kLimitDecreasePermille / 1000));
}

TEST(AdmissionDifferential, PodEnrolledWithHistory) {
  // A pod that served requests before its enrollment: some archived by a
  // crash and a restart in place, some served by the live sink, some still
  // queued. The record starts from that history, and the first round's p50
  // is over all of it, as the merged lifetime stream read it.
  Fleet fleet(0);
  const int pod = fleet.create_pod(1);
  const auto serve = [&](std::initializer_list<CpuTime> costs) {
    for (const CpuTime cost : costs) {
      live_sink(fleet.cluster, pod)->inject_request(fleet.cluster.now(), cost);
    }
  };
  serve({1 * msec, 9 * msec, 3 * msec});
  for (int s = 0; s < 30; ++s) {
    fleet.cluster.step();
  }
  fleet.cluster.crash_pod(pod);
  fleet.cluster.restart_pod(pod);
  serve({2 * msec, 2 * msec});
  for (int s = 0; s < 10; ++s) {
    fleet.cluster.step();
  }
  serve({40 * msec, 1 * msec});
  fleet.arm();
  ASSERT_TRUE(fleet.router.add_replica(pod));
  const Pod& p = fleet.cluster.pod(pod);
  ASSERT_GT(p.archived.completed, 0u);
  ASSERT_GT(live_sink(fleet.cluster, pod)->stats().completed, 0u);
  ASSERT_GT(live_sink(fleet.cluster, pod)->queue_depth(), 0u);
  server::RequestStats merged = p.archived;
  merged.merge(live_sink(fleet.cluster, pod)->stats());
  expect_same_stats(fleet.router.aggregate(), merged);
  // Three rounds of traffic, each with completions (the first one's are the
  // history); the reference compares every one.
  while (fleet.coverage.rounds < 3) {
    fleet.router.inject(fleet.cluster.now(), 1 * msec);
    fleet.cluster.step();
  }
  EXPECT_EQ(fleet.coverage.increases + fleet.coverage.decreases, 3u);
}

}  // namespace
}  // namespace arv::cluster
