// Server-runtime case studies beyond the paper's two (§4): the
// auto-configuration patterns that make 62 of the DockerHub top-100 images
// "affected" (Figure 1) are mostly these two:
//
//   * WorkerPoolServer — httpd/nginx-style: `worker_processes auto;` spawns
//     one worker per *detected* CPU at startup. In a container that detects
//     the host's CPUs and over-threads; with the adaptive view it sizes to
//     effective CPUs, and can re-size on a graceful reload.
//
//   * CacheServer — MongoDB/WiredTiger-style: cache bytes = 50% of
//     (detected RAM − 1 GiB). Detecting host RAM inside a small container
//     commits a cache far beyond the memory limit and thrashes; the
//     adaptive view right-sizes it and follows effective memory.
//
// Both serve an open-loop request stream so the damage is measured the way
// operators feel it: throughput and tail latency.
#pragma once

#include <deque>
#include <vector>

#include "src/container/container.h"
#include "src/sched/fair_scheduler.h"
#include "src/util/latency_histogram.h"
#include "src/util/types.h"

namespace arv::server {

/// How a server decides its resource-dependent knob at startup.
enum class Sizing {
  kDetected,  ///< probe through sysconf (host values in a stock container,
              ///< effective values behind the adaptive view)
  kFixed,     ///< operator-pinned value
};

struct RequestStats {
  std::uint64_t completed = 0;
  std::uint64_t arrived = 0;
  /// Arrivals refused at the accept queue. Lives in the stats block (not a
  /// bare server counter) so drops survive the archive/merge pipeline that
  /// carries a replica's history across migrations and crashes.
  std::uint64_t dropped = 0;
  /// Per-request latency distribution. A bounded log-bucket sketch (<= 6.25%
  /// relative error, exact merge) instead of a raw sample vector: at the
  /// workload engine's millions-of-requests scale a full sample log is O(n)
  /// memory and the old bounded reservoir truncated exactly the tail that
  /// p99 accounting needs.
  util::LatencyHistogram latency_hist;

  double p95_ms() const;
  /// Nearest-rank latency percentile in milliseconds, p in [0, 100].
  double percentile_ms(double p) const;
  double throughput_per_sec(SimDuration elapsed) const;

  /// Fold another stats block into this one (cluster-level aggregation and
  /// carrying a migrated replica's history forward).
  void merge(const RequestStats& other);
};

struct WebConfig {
  Sizing sizing = Sizing::kDetected;
  int fixed_workers = 0;          ///< for kFixed
  /// Open-loop request rate the server generates itself. 0 means arrivals
  /// are externally driven (a cluster RequestRouter calling inject_request).
  double arrivals_per_sec = 800;
  SimDuration service_cpu = 4 * units::msec;  ///< CPU per request
  /// Re-read the CPU count and resize the pool this often (graceful
  /// reload); 0 disables re-sizing (size once at startup, like stock httpd).
  SimDuration resize_interval = 0;
  std::size_t max_queue = 10000;  ///< accept queue bound; beyond = drops
};

class WorkerPoolServer : public sched::Schedulable {
 public:
  WorkerPoolServer(container::Host& host, container::Container& target,
                   WebConfig config);
  ~WorkerPoolServer() override;
  WorkerPoolServer(const WorkerPoolServer&) = delete;
  WorkerPoolServer& operator=(const WorkerPoolServer&) = delete;

  // --- sched::Schedulable ---------------------------------------------------
  int runnable_threads() const override;
  void consume(SimTime now, SimDuration dt, CpuTime grant) override;

  /// Externally-driven arrival (request routing): enqueue one request that
  /// arrived `now`. Honors the accept-queue bound; false when dropped.
  /// `cost` is the request's CPU demand; 0 means the config's service_cpu
  /// (the open-loop workload engine injects heavy-tailed per-request costs).
  bool inject_request(SimTime now, CpuTime cost = 0);

  /// Adaptive accept-queue bound (the overload controller's AIMD knob).
  /// Clamped to [1, config.max_queue]; starts at max_queue, so without a
  /// controller the behaviour is the static bound.
  void set_queue_limit(std::size_t limit);
  std::size_t queue_limit() const { return queue_limit_; }

  int workers() const { return workers_; }
  std::size_t queue_depth() const { return queue_.size() - head_; }
  std::uint64_t dropped() const { return stats_.dropped; }
  const RequestStats& stats() const { return stats_; }
  const std::vector<int>& worker_trace() const { return worker_trace_; }

 private:
  /// One accepted request: arrival time plus its (possibly heterogeneous)
  /// CPU cost, resolved at admission so the drain loop never re-derives it.
  struct QueuedRequest {
    SimTime arrival = 0;
    CpuTime cost = 0;
  };

  int detect_workers() const;
  void admit_arrivals(SimTime now, SimDuration dt);

  container::Host& host_;
  container::Container& container_;
  proc::Pid pid_;
  WebConfig config_;
  int workers_;
  std::size_t queue_limit_;
  /// The accept queue: queue_[head_..] in arrival order. consume() pops by
  /// advancing head_ and drops the served prefix once it passes half the
  /// vector, so the depth is one subtraction and a pop moves nothing.
  std::vector<QueuedRequest> queue_;
  std::size_t head_ = 0;
  CpuTime current_request_progress_ = 0;
  SimTime next_resize_ = 0;
  double arrival_accumulator_ = 0;
  RequestStats stats_;
  std::vector<int> worker_trace_;
  bool attached_ = false;
};

struct CacheConfig {
  Sizing sizing = Sizing::kDetected;
  Bytes fixed_cache = 0;  ///< for kFixed
  double arrivals_per_sec = 400;
  SimDuration service_cpu = 2 * units::msec;  ///< CPU per request (hit)
  Bytes dataset = 8 * units::GiB;  ///< hot data the cache covers
  /// Re-read effective memory and resize the cache this often; 0 = never.
  SimDuration resize_interval = 0;
};

class CacheServer : public sched::Schedulable {
 public:
  CacheServer(container::Host& host, container::Container& target,
              CacheConfig config);
  ~CacheServer() override;
  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  // --- sched::Schedulable ---------------------------------------------------
  int runnable_threads() const override;
  void consume(SimTime now, SimDuration dt, CpuTime grant) override;

  Bytes cache_target() const { return cache_target_; }
  Bytes cache_committed() const { return cache_committed_; }
  double hit_ratio() const;
  const RequestStats& stats() const { return stats_; }

 private:
  /// WiredTiger's rule: 50% of (detected RAM - 1 GiB), floor 256 MiB.
  Bytes detect_cache_bytes() const;
  void grow_cache(SimTime now, SimDuration dt, CpuTime grant);

  container::Host& host_;
  container::Container& container_;
  proc::Pid pid_;
  CacheConfig config_;
  Bytes cache_target_;
  Bytes cache_committed_ = 0;
  double arrival_accumulator_ = 0;
  std::deque<SimTime> queue_;
  CpuTime current_request_progress_ = 0;
  SimTime stalled_until_ = 0;
  SimTime next_resize_ = 0;
  RequestStats stats_;
  bool attached_ = false;
};

}  // namespace arv::server
