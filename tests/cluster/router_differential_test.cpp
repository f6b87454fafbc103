// RequestRouter against a reference router: the per-request rescan the
// router used before it routed each batch against one table of live
// replicas. Two identical clusters receive identical seeded batches and
// identical pod churn between them (stop, crash, restart, migrate, landing);
// one routes through RequestRouter, the other through the reference, which
// reads only the public API (Cluster::pod(id).workload->request_sink(),
// queue_depth, inject_request, AdmissionController::allow_retry/on_success).
// Every counter and every replica's arrived/dropped/queue depth must match
// after every batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/overload.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/router.h"
#include "src/server/server_runtime.h"
#include "src/util/rng.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

constexpr int kHosts = 4;

/// The pre-table routing rule, written over the public API: every attempt
/// re-reads every enrolled replica's sink, JSQ picks the first lowest depth
/// in rotation order, a refused replica leaves the candidate list.
class ReferenceRouter {
 public:
  ReferenceRouter(Cluster& cluster, int max_retries,
                  AdmissionController* admission)
      : cluster_(cluster), max_retries_(max_retries), admission_(admission) {}

  void add_replica(int pod_id) { replicas_.push_back(pod_id); }

  void route_one(SimTime now, CpuTime cost) {
    ++generated;
    std::vector<int> candidates;
    for (const int pod : replicas_) {
      if (sink(pod) != nullptr) {
        candidates.push_back(pod);
      }
    }
    if (candidates.empty()) {
      ++unroutable;
      return;
    }
    for (int attempt = 0; attempt <= max_retries_ && !candidates.empty();
         ++attempt) {
      if (attempt > 0 && admission_ != nullptr && !admission_->allow_retry()) {
        break;
      }
      std::size_t best_pos = 0;
      for (std::size_t pos = 1; pos < candidates.size(); ++pos) {
        if (sink(candidates[pos])->queue_depth() <
            sink(candidates[best_pos])->queue_depth()) {
          best_pos = pos;
        }
      }
      ++attempts;
      if (attempt > 0) {
        ++retries;
      }
      if (sink(candidates[best_pos])->inject_request(now, cost)) {
        ++routed;
        if (admission_ != nullptr) {
          admission_->on_success();
        }
        return;
      }
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(best_pos));
    }
    ++dropped;
  }

  std::uint64_t generated = 0;
  std::uint64_t routed = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t dropped = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;

 private:
  server::WorkerPoolServer* sink(int pod_id) {
    Pod& pod = cluster_.pod(pod_id);
    return pod.workload == nullptr ? nullptr : pod.workload->request_sink();
  }

  Cluster& cluster_;
  int max_retries_;
  AdmissionController* admission_;
  std::vector<int> replicas_;
};

server::WorkerPoolServer* live_sink(Cluster& cluster, int pod_id) {
  Pod& pod = cluster.pod(pod_id);
  return pod.workload == nullptr ? nullptr : pod.workload->request_sink();
}

/// One fleet: a cluster of kHosts hosts plus its admission controller.
struct Fleet {
  Fleet() : admission(cluster) {
    for (int h = 0; h < kHosts; ++h) {
      container::HostConfig host;
      host.cpus = 8;
      host.ram = 32 * GiB;
      cluster.add_host(host);
    }
  }
  Cluster cluster;
  AdmissionController admission;  ///< never ticked: queue limits stay ours
};

void expect_same_replicas(Cluster& a, Cluster& b,
                          const std::vector<int>& pods) {
  for (const int pod : pods) {
    SCOPED_TRACE(pod);
    EXPECT_EQ(a.pod(pod).archived.arrived, b.pod(pod).archived.arrived);
    EXPECT_EQ(a.pod(pod).archived.dropped, b.pod(pod).archived.dropped);
    server::WorkerPoolServer* sa = live_sink(a, pod);
    server::WorkerPoolServer* sb = live_sink(b, pod);
    ASSERT_EQ(sa == nullptr, sb == nullptr);
    if (sa != nullptr) {
      EXPECT_EQ(sa->stats().arrived, sb->stats().arrived);
      EXPECT_EQ(sa->stats().dropped, sb->stats().dropped);
      EXPECT_EQ(sa->queue_depth(), sb->queue_depth());
    }
  }
}

void expect_same_counters(const RequestRouter& router,
                          const ReferenceRouter& ref) {
  EXPECT_EQ(router.generated(), ref.generated);
  EXPECT_EQ(router.routed(), ref.routed);
  EXPECT_EQ(router.unroutable(), ref.unroutable);
  EXPECT_EQ(router.dropped(), ref.dropped);
  EXPECT_EQ(router.attempts(), ref.attempts);
  EXPECT_EQ(router.retries(), ref.retries);
}

/// What a trial exercised, summed over the sweep.
struct Coverage {
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t crashes = 0;
  std::uint64_t landings = 0;
};

void run_trial(std::uint64_t seed, Coverage& coverage) {
  SCOPED_TRACE(seed);
  Rng rng(seed);
  Fleet under_test;
  Fleet reference;
  const int replicas = static_cast<int>(rng.uniform_int(1, 40));
  const int max_retries = static_cast<int>(rng.uniform_int(0, 4));
  const bool with_admission = rng.chance(0.75);

  RouterConfig config;
  config.arrivals_per_sec = static_cast<double>(rng.uniform_int(0, 100000));
  config.max_retries = max_retries;
  RequestRouter router(under_test.cluster, config);
  if (with_admission) {
    under_test.admission.register_tenant("api", router);
  }
  ReferenceRouter ref(reference.cluster, max_retries,
                      with_admission ? &reference.admission : nullptr);

  server::WebConfig web;
  web.service_cpu = 2 * msec;
  std::vector<int> pods;
  std::vector<std::size_t> limits;
  for (int i = 0; i < replicas; ++i) {
    const int host = static_cast<int>(rng.uniform_int(0, kHosts - 1));
    container::K8sResources res;
    res.request_millicpu = 500;
    res.request_memory = 256 * MiB;
    const int a = under_test.cluster.create_pod(host, {"", res},
                                                web_replica(web));
    const int b = reference.cluster.create_pod(host, {"", res},
                                               web_replica(web));
    ASSERT_EQ(a, b);
    ASSERT_TRUE(router.add_replica(a));
    ref.add_replica(b);
    pods.push_back(a);
    limits.push_back(static_cast<std::size_t>(rng.uniform_int(1, 8)));
  }

  double accumulator = 0;  // the reference side of router.tick()'s arrivals
  std::vector<CpuTime> costs;
  for (int round = 0; round < 24; ++round) {
    // --- churn between batches, mirrored on both fleets ----------------------
    const int mutations = static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < mutations; ++m) {
      const int pod = pods[static_cast<std::size_t>(
          rng.uniform_int(0, replicas - 1))];
      const Pod& p = under_test.cluster.pod(pod);
      const std::int64_t kind = rng.uniform_int(0, 3);
      if (p.running() && kind == 0) {
        under_test.cluster.stop_pod(pod);
        reference.cluster.stop_pod(pod);
      } else if (p.running() && kind == 1) {
        under_test.cluster.crash_pod(pod);
        reference.cluster.crash_pod(pod);
        ++coverage.crashes;
      } else if (p.running()) {
        const int target = static_cast<int>(
            (p.host + rng.uniform_int(1, kHosts - 1)) % kHosts);
        under_test.cluster.migrate_pod(pod, target);
        reference.cluster.migrate_pod(pod, target);
      } else if (p.failed) {
        under_test.cluster.restart_pod(pod);
        reference.cluster.restart_pod(pod);
      }
    }
    if (rng.chance(0.2)) {
      for (std::size_t& limit : limits) {
        limit = static_cast<std::size_t>(rng.uniform_int(1, 8));
      }
    }
    for (std::size_t i = 0; i < pods.size(); ++i) {
      for (Cluster* c : {&under_test.cluster, &reference.cluster}) {
        if (server::WorkerPoolServer* s = live_sink(*c, pods[i])) {
          s->set_queue_limit(limits[i]);  // a landed replica starts unbounded
        }
      }
    }

    // --- one batch, routed by both -------------------------------------------
    const SimTime now = under_test.cluster.now();
    const std::int64_t kind = rng.uniform_int(0, 3);
    if (kind == 0) {  // router tick: its own cost-0 arrivals
      const SimDuration dt = 1 * msec;
      router.tick(now, dt);
      accumulator += config.arrivals_per_sec * static_cast<double>(dt) /
                     static_cast<double>(sec);
      while (accumulator >= 1.0) {
        accumulator -= 1.0;
        ref.route_one(now, 0);
      }
    } else if (kind == 1) {  // single injections
      const std::int64_t n = rng.uniform_int(0, 20);
      for (std::int64_t i = 0; i < n; ++i) {
        const CpuTime cost = rng.uniform_int(0, 8) * msec;
        router.inject(now, cost);
        ref.route_one(now, cost);
      }
    } else {  // the driver's batch path
      costs.assign(static_cast<std::size_t>(rng.uniform_int(0, 200)), 0);
      for (CpuTime& cost : costs) {
        cost = rng.uniform_int(0, 8) * msec;
      }
      router.inject_batch(now, costs.data(), costs.size());
      for (const CpuTime cost : costs) {
        ref.route_one(now, cost);
      }
    }

    expect_same_counters(router, ref);
    EXPECT_EQ(under_test.admission.retries_allowed(),
              reference.admission.retries_allowed());
    EXPECT_EQ(under_test.admission.retries_denied(),
              reference.admission.retries_denied());
    EXPECT_EQ(under_test.admission.retry_tokens_milli(),
              reference.admission.retry_tokens_milli());
    expect_same_replicas(under_test.cluster, reference.cluster, pods);
    if (testing::Test::HasFailure()) {
      return;  // one diverged round is enough; the rest would only cascade
    }

    // --- time passes: queues drain, migrations land ---------------------------
    std::vector<int> in_flight;
    for (const int pod : pods) {
      if (under_test.cluster.pod(pod).in_flight()) {
        in_flight.push_back(pod);
      }
    }
    const std::int64_t steps = rng.uniform_int(0, 80);
    for (std::int64_t s = 0; s < steps; ++s) {
      under_test.cluster.step();
      reference.cluster.step();
    }
    for (const int pod : in_flight) {
      coverage.landings += under_test.cluster.pod(pod).running() ? 1 : 0;
    }
  }
  coverage.retries += ref.retries;
  coverage.dropped += ref.dropped;
  coverage.unroutable += ref.unroutable;
}

TEST(RouterDifferential, TableMatchesPerRequestRescanUnderChurn) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_trial(seed, coverage);
    if (testing::Test::HasFailure()) {
      return;
    }
  }
  // The sweep must exercise what it claims to.
  EXPECT_GT(coverage.retries, 0u);
  EXPECT_GT(coverage.dropped, 0u);
  EXPECT_GT(coverage.unroutable, 0u);
  EXPECT_GT(coverage.crashes, 0u);
  EXPECT_GT(coverage.landings, 0u);
}

/// A hand-set fleet for the level cursor's edge cases: `replicas` running
/// replicas spread over the hosts, no admission controller, routed by
/// RequestRouter on one fleet and the reference on its twin.
class Twin {
 public:
  Twin(int replicas, int max_retries)
      : router_(under_test_.cluster, config(max_retries)),
        ref_(reference_.cluster, max_retries, nullptr) {
    server::WebConfig web;
    web.service_cpu = 2 * msec;
    for (int i = 0; i < replicas; ++i) {
      container::K8sResources res;
      res.request_millicpu = 500;
      res.request_memory = 256 * MiB;
      const int pod = under_test_.cluster.create_pod(i % kHosts, {"", res},
                                                     web_replica(web));
      EXPECT_EQ(pod, reference_.cluster.create_pod(i % kHosts, {"", res},
                                                   web_replica(web)));
      router_.add_replica(pod);
      ref_.add_replica(pod);
      pods_.push_back(pod);
    }
  }

  /// Queue `depth` requests on replica `i` directly, then bound it at
  /// `limit`, on both fleets.
  void fill(std::size_t i, std::size_t depth, std::size_t limit) {
    for (Cluster* c : {&under_test_.cluster, &reference_.cluster}) {
      server::WorkerPoolServer* s = live_sink(*c, pods_[i]);
      s->set_queue_limit(depth);
      for (std::size_t d = s->queue_depth(); d < depth; ++d) {
        ASSERT_TRUE(s->inject_request(c->now(), 0));
      }
      s->set_queue_limit(limit);
    }
  }

  /// One inject_batch of `n` requests of mixed cost, routed by both; then
  /// every counter and every replica must match.
  void batch(std::size_t n) {
    costs_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      costs_.push_back(static_cast<CpuTime>(i % 5) * msec);
    }
    const SimTime now = under_test_.cluster.now();
    router_.inject_batch(now, costs_.data(), costs_.size());
    for (const CpuTime cost : costs_) {
      ref_.route_one(now, cost);
    }
    expect_same_counters(router_, ref_);
    expect_same_replicas(under_test_.cluster, reference_.cluster, pods_);
  }

  void step(int ticks) {
    for (int t = 0; t < ticks; ++t) {
      under_test_.cluster.step();
      reference_.cluster.step();
    }
  }

  const RequestRouter& router() const { return router_; }

 private:
  static RouterConfig config(int max_retries) {
    RouterConfig config;
    config.arrivals_per_sec = 0;
    config.max_retries = max_retries;
    return config;
  }

  Fleet under_test_;
  Fleet reference_;
  RequestRouter router_;
  ReferenceRouter ref_;
  std::vector<int> pods_;
  std::vector<CpuTime> costs_;
};

TEST(RouterDifferential, EveryFirstPickRefusesAndFallsBack) {
  // Every replica is full at limit 1, so each request's first pick refuses
  // and the fallback decides the rest. The first lowest depth must take
  // every first attempt: the cursor stays on a refusing entry.
  for (const int max_retries : {0, 1, 2, 6}) {
    SCOPED_TRACE(max_retries);
    Twin twin(6, max_retries);
    const std::size_t depths[] = {2, 1, 3, 1, 2, 1};
    for (std::size_t i = 0; i < 6; ++i) {
      twin.fill(i, depths[i], 1);
    }
    twin.batch(40);
    EXPECT_EQ(twin.router().dropped(), 40u);
    // Free one slot behind the refusing entries: later first picks still
    // refuse there, and the fallback finds the free one.
    twin.fill(3, 1, 3);
    twin.batch(40);
    EXPECT_EQ(twin.router().routed() > 0, max_retries > 0);
  }
}

TEST(RouterDifferential, LevelClimbsOneEntryAtATime) {
  // One replica far below the rest: the level rises by one per request
  // until it meets the others, then the batch rotates over all five.
  Twin twin(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    twin.fill(i, i == 2 ? 0 : 40, 1000);
  }
  twin.batch(200);
  EXPECT_EQ(twin.router().routed(), 200u);
  // A second batch after service drained some of every queue.
  twin.step(7);
  twin.fill(4, 0, 1000);
  twin.batch(200);
}

TEST(RouterDifferential, LargeBatchesOverTwoReplicas) {
  // 200 requests a batch over 2 replicas, with the queues draining between
  // batches: each batch starts from a lower level than the last one ended.
  for (const int max_retries : {0, 2}) {
    SCOPED_TRACE(max_retries);
    Twin twin(2, max_retries);
    Rng rng(static_cast<std::uint64_t>(max_retries) + 11);
    for (int round = 0; round < 12; ++round) {
      for (std::size_t i = 0; i < 2; ++i) {
        twin.fill(i, 0, static_cast<std::size_t>(rng.uniform_int(20, 160)));
      }
      twin.batch(200);
      twin.step(static_cast<int>(rng.uniform_int(0, 30)));
      if (testing::Test::HasFailure()) {
        return;
      }
    }
    EXPECT_GT(twin.router().routed(), 0u);
    EXPECT_GT(twin.router().dropped(), 0u);
  }
}

}  // namespace
}  // namespace arv::cluster
