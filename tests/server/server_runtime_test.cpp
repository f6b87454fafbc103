#include "src/server/server_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "src/util/rng.h"
#include "src/workloads/hogs.h"

namespace arv::server {
namespace {

using namespace arv::units;

struct Fixture {
  Fixture() : host(host_config()), runtime(host) {}

  static container::HostConfig host_config() {
    container::HostConfig config;
    config.cpus = 20;
    config.ram = 128 * GiB;
    return config;
  }

  container::Host host;
  container::ContainerRuntime runtime;
};

TEST(WorkerPoolServer, DetectsHostCpusInStockContainer) {
  Fixture f;
  container::ContainerConfig config;
  config.cfs_quota_us = 400000;
  config.enable_resource_view = false;
  auto& c = f.runtime.run(config);
  WorkerPoolServer srv(f.host, c, {});
  EXPECT_EQ(srv.workers(), 20);  // the semantic gap, worker-pool flavour
}

TEST(WorkerPoolServer, DetectsEffectiveCpusBehindView) {
  Fixture f;
  container::ContainerConfig config;
  config.cfs_quota_us = 400000;
  auto& c = f.runtime.run(config);
  WorkerPoolServer srv(f.host, c, {});
  EXPECT_EQ(srv.workers(), 4);
}

TEST(WorkerPoolServer, FixedSizingRespected) {
  Fixture f;
  auto& c = f.runtime.run({});
  WebConfig config;
  config.sizing = Sizing::kFixed;
  config.fixed_workers = 7;
  WorkerPoolServer srv(f.host, c, config);
  EXPECT_EQ(srv.workers(), 7);
}

TEST(WorkerPoolServer, ServesRequestsAndRecordsLatency) {
  Fixture f;
  auto& c = f.runtime.run({});
  WebConfig config;
  config.arrivals_per_sec = 500;
  config.service_cpu = 2 * msec;
  WorkerPoolServer srv(f.host, c, config);
  f.host.run_for(5 * sec);
  // 500 req/s * 2ms = 1 CPU of demand on a 20-CPU host: keeps up easily.
  EXPECT_GT(srv.stats().completed, 2000u);
  EXPECT_NEAR(srv.stats().throughput_per_sec(5 * sec), 500.0, 25.0);
  EXPECT_LT(srv.stats().p95_ms(), 50.0);
  EXPECT_EQ(srv.dropped(), 0u);
}

TEST(WorkerPoolServer, OverloadQueuesAndDrops) {
  Fixture f;
  container::ContainerConfig config;
  config.cfs_quota_us = 100000;  // 1 CPU
  auto& c = f.runtime.run(config);
  WebConfig web;
  web.arrivals_per_sec = 2000;  // 2000 * 2ms = 4 CPUs of demand on 1
  web.service_cpu = 2 * msec;
  web.max_queue = 500;
  WorkerPoolServer srv(f.host, c, web);
  f.host.run_for(5 * sec);
  EXPECT_GT(srv.dropped(), 0u);
  EXPECT_GE(srv.queue_depth(), 400u);
  EXPECT_LT(srv.stats().throughput_per_sec(5 * sec), 700.0);
}

TEST(WorkerPoolServer, OverThreadingHurtsTailLatency) {
  // Two identical quota-limited containers under the same load; the server
  // that detects the host's 20 CPUs runs 20 workers on 2 effective CPUs.
  auto run_one = [](bool view) {
    Fixture f;
    container::ContainerConfig config;
    config.cfs_quota_us = 200000;  // 2 CPUs
    config.enable_resource_view = view;
    auto& c = f.runtime.run(config);
    WebConfig web;
    // Slight overload: the queue builds, every worker goes runnable, and
    // 20 workers on 2 effective CPUs pay the context-switch tax while
    // 2 workers do not.
    web.arrivals_per_sec = 1000;
    web.service_cpu = 25 * msec / 10;  // 2.5 ms => 2.5 CPUs of demand
    WorkerPoolServer srv(f.host, c, web);
    f.host.run_for(10 * sec);
    return std::pair{srv.stats().p95_ms(),
                     srv.stats().throughput_per_sec(10 * sec)};
  };
  const auto [oblivious_p95, oblivious_tput] = run_one(false);
  const auto [adaptive_p95, adaptive_tput] = run_one(true);
  // CFS quota bursting lets the oversized pool run wide for part of each
  // period, so the penalty is substantial rather than total: clearly worse
  // tail latency and throughput, not collapse.
  EXPECT_LT(adaptive_p95, oblivious_p95 * 0.8);
  EXPECT_GT(adaptive_tput, oblivious_tput * 1.1);
}

TEST(WorkerPoolServer, GracefulReloadTracksFreedCpus) {
  Fixture f;
  // The hog exists first, so the web container's view starts at its fair
  // share (10 of 20 CPUs).
  auto& hog_c = f.runtime.run({.name = "hog"});
  workloads::CpuHog hog(f.host, hog_c, 20, 40 * sec);
  auto& web_c = f.runtime.run({.name = "web"});
  WebConfig config;
  config.resize_interval = 500 * msec;
  // ~14 CPUs of demand: saturates the view while the hog runs, leaves
  // slack for the view to expand into once the hog retires.
  config.arrivals_per_sec = 3500;
  WorkerPoolServer srv(f.host, web_c, config);
  const int initial = srv.workers();
  EXPECT_EQ(initial, 10);
  f.host.run_for(30 * sec);  // hog retires around t=4s
  EXPECT_GT(srv.workers(), initial);
  EXPECT_GE(srv.worker_trace().size(), 2u);
}

/// WorkerPoolServer's accept queue as a plain std::deque: admission,
/// drops, FIFO service with carried partial progress, latency recording.
/// One fixed worker with a grant of at least one CPU keeps the efficiency
/// factor at exactly 1, so served CPU is grant + carried progress.
struct DequeServerModel {
  explicit DequeServerModel(const WebConfig& web)
      : config(web), limit(web.max_queue) {}

  struct Request {
    SimTime arrival;
    CpuTime cost;
  };

  void inject(SimTime now, CpuTime cost) {
    ++stats.arrived;
    if (queue.size() >= limit) {
      ++stats.dropped;
      return;
    }
    queue.push_back({now, cost > 0 ? cost : config.service_cpu});
  }

  void consume(SimTime now, SimDuration dt, CpuTime grant) {
    if (config.arrivals_per_sec > 0) {
      accumulator += config.arrivals_per_sec * static_cast<double>(dt) /
                     static_cast<double>(sec);
      while (accumulator >= 1.0) {
        accumulator -= 1.0;
        inject(now, 0);
      }
    }
    if (grant <= 0 || queue.empty()) {
      return;
    }
    CpuTime useful = grant + progress;
    progress = 0;
    while (useful > 0 && !queue.empty()) {
      if (useful >= queue.front().cost) {
        useful -= queue.front().cost;
        stats.latency_hist.record(now - queue.front().arrival);
        ++stats.completed;
        queue.pop_front();
      } else {
        progress = useful;
        useful = 0;
      }
    }
  }

  WebConfig config;
  std::size_t limit;
  std::deque<Request> queue;
  CpuTime progress = 0;
  double accumulator = 0;
  RequestStats stats;
};

void expect_same_stats(const RequestStats& a, const RequestStats& b) {
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.latency_hist.count(), b.latency_hist.count());
  EXPECT_EQ(a.latency_hist.sum(), b.latency_hist.sum());
  EXPECT_EQ(a.latency_hist.min(), b.latency_hist.min());
  EXPECT_EQ(a.latency_hist.max(), b.latency_hist.max());
  for (int p = 0; p <= 100; p += 5) {
    EXPECT_EQ(a.latency_hist.percentile(p), b.latency_hist.percentile(p)) << p;
  }
}

TEST(WorkerPoolServer, AcceptQueueMatchesADequeModel) {
  constexpr SimDuration kDt = 1 * msec;
  std::uint64_t compactions = 0;  // served more than half of a queue
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Fixture f;
    auto& c = f.runtime.run({});
    WebConfig web;
    web.sizing = Sizing::kFixed;
    web.fixed_workers = 1;
    web.service_cpu = 2 * msec;
    // Half the seeds are router-fed; the rest also generate arrivals.
    web.arrivals_per_sec = seed % 2 == 0 ? 0.0 : 1500.0;
    constexpr std::size_t kMaxQueues[] = {8, 64, 3000};
    web.max_queue = kMaxQueues[seed % 3];
    WorkerPoolServer srv(f.host, c, web);
    DequeServerModel model(web);
    SimTime now = 0;
    for (int op = 0; op < 20000; ++op) {
      // Offered CPU about matches the grants, so the depth wanders between
      // empty and the limit instead of pinning at either.
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind < 4) {  // a burst of injections, mixed costs (0 = default)
        const std::int64_t n = rng.uniform_int(1, 6);
        for (std::int64_t i = 0; i < n; ++i) {
          const CpuTime cost = rng.uniform_int(0, 6) * msec / 2;
          const bool accepted = srv.inject_request(now, cost);
          const std::uint64_t dropped = model.stats.dropped;
          model.inject(now, cost);
          EXPECT_EQ(accepted, model.stats.dropped == dropped);
        }
      } else if (kind == 4) {  // a new limit, clamped into [1, max_queue]
        const auto limit = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(web.max_queue) + 4));
        srv.set_queue_limit(limit);
        model.limit = std::clamp<std::size_t>(limit, 1, web.max_queue);
        EXPECT_EQ(srv.queue_limit(), model.limit);
      } else {  // a tick granting 0 or 1-4 CPUs, mostly not whole ones
        now += kDt;
        const CpuTime grant =
            rng.chance(0.2) ? 0 : rng.uniform_int(kDt, 4 * kDt);
        const std::size_t before = model.queue.size();
        srv.consume(now, kDt, grant);
        model.consume(now, kDt, grant);
        compactions += 2 * (before - std::min(before, model.queue.size())) >
                               before
                           ? 1
                           : 0;
      }
      ASSERT_EQ(srv.queue_depth(), model.queue.size()) << "op " << op;
    }
    expect_same_stats(srv.stats(), model.stats);
  }
  EXPECT_GT(compactions, 1000u);
}

TEST(CacheServer, DetectsHostRamInStockContainer) {
  Fixture f;
  container::ContainerConfig config;
  config.mem_limit = 2 * GiB;
  config.enable_resource_view = false;
  auto& c = f.runtime.run(config);
  CacheServer srv(f.host, c, {});
  // 50% of (128 GiB - 1 GiB): catastrophically oversized for a 2 GiB limit.
  EXPECT_GT(srv.cache_target(), 60 * GiB);
}

TEST(CacheServer, SizesToEffectiveMemoryBehindView) {
  Fixture f;
  container::ContainerConfig config;
  config.mem_limit = 2 * GiB;
  config.mem_soft_limit = 2 * GiB;
  auto& c = f.runtime.run(config);
  CacheServer srv(f.host, c, {});
  EXPECT_EQ(srv.cache_target(), (2 * GiB - 1 * GiB) / 2);
}

TEST(CacheServer, WarmCacheImprovesHitRatio) {
  Fixture f;
  auto& c = f.runtime.run({});
  CacheConfig config;
  config.dataset = 4 * GiB;
  CacheServer srv(f.host, c, config);
  // Without limits the container sees the host's RAM: the cache target is
  // far above the dataset, so the cache can come to cover all of it.
  EXPECT_EQ(srv.cache_target(), (128 * GiB - 1 * GiB) / 2);
  EXPECT_EQ(srv.hit_ratio(), 0.0);
  f.host.run_for(20 * sec);
  EXPECT_GT(srv.hit_ratio(), 0.9);
  EXPECT_GT(srv.stats().completed, 1000u);
}

TEST(CacheServer, OversizedCacheThrashesInSmallContainer) {
  auto run_one = [](bool view) {
    Fixture f;
    container::ContainerConfig config;
    config.mem_limit = 2 * GiB;
    config.mem_soft_limit = 2 * GiB;
    config.enable_resource_view = view;
    auto& c = f.runtime.run(config);
    CacheConfig cache;
    cache.dataset = 2 * GiB;
    CacheServer srv(f.host, c, cache);
    f.host.run_for(30 * sec);
    return srv.stats().throughput_per_sec(30 * sec);
  };
  const double oblivious = run_one(false);  // 63.5 GiB cache in 2 GiB limit
  const double adaptive = run_one(true);    // 0.5 GiB cache, no swap
  EXPECT_GT(adaptive, oblivious * 1.5);
}

TEST(CacheServer, ResizeFollowsEffectiveMemory) {
  Fixture f;
  container::ContainerConfig config;
  config.mem_limit = 8 * GiB;
  config.mem_soft_limit = 2 * GiB;
  auto& c = f.runtime.run(config);
  CacheConfig cache;
  cache.dataset = 8 * GiB;
  cache.resize_interval = 500 * msec;
  CacheServer srv(f.host, c, cache);
  const Bytes initial_target = srv.cache_target();
  EXPECT_EQ(initial_target, (2 * GiB - 1 * GiB) / 2);
  // The 50% rule alone never crosses Algorithm 2's 90% usage trigger, so
  // effective memory stays put — until something else in the container
  // (application data, charged here directly) builds real pressure. Then
  // the view expands and the resize loop follows it upward.
  ASSERT_EQ(f.host.memory().charge(c.cgroup(), 1700 * MiB), mem::ChargeResult::kOk);
  f.host.run_for(60 * sec);
  EXPECT_GT(srv.cache_target(), initial_target);
}

TEST(RequestStats, PercentileAndThroughput) {
  RequestStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.latency_hist.record(i * 1000);  // 1..100 ms
    ++stats.completed;
  }
  // The log-bucket sketch guarantees <= 6.25% relative error at this scale.
  EXPECT_NEAR(stats.p95_ms(), 95.0, 95.0 * 0.0625);
  EXPECT_DOUBLE_EQ(stats.throughput_per_sec(10 * sec), 10.0);
}

TEST(RequestStats, MergeFoldsHistograms) {
  RequestStats a;
  RequestStats b;
  a.latency_hist.record(1000);
  a.completed = 1;
  b.latency_hist.record(100000);
  b.completed = 1;
  a.merge(b);
  EXPECT_EQ(a.completed, 2u);
  EXPECT_EQ(a.latency_hist.count(), 2u);
  EXPECT_NEAR(a.percentile_ms(99.0), 100.0, 100.0 * 0.0625);
}

}  // namespace
}  // namespace arv::server
