#include "src/server/server_runtime.h"

#include <algorithm>
#include <cmath>

#include "src/util/assert.h"

namespace arv::server {
namespace {

/// WorkerPoolServer's per-worker coordination overhead and oversubscription
/// penalty.
constexpr double kAlpha = 0.01;
constexpr double kBeta = 0.08;
/// CacheServer: extra CPU per miss (index walk) plus backing-store stall.
constexpr SimDuration kMissExtraCpu = 2 * units::msec;
constexpr SimDuration kMissStall = 3 * units::msec;
constexpr std::size_t kCacheWorkerThreads = 8;

double efficiency(int threads, double granted_cpus) {
  const double oversub = std::max(0.0, static_cast<double>(threads) - granted_cpus);
  return 1.0 / (1.0 + kAlpha * static_cast<double>(threads - 1)) /
         (1.0 + kBeta * oversub);
}

void record_latency(RequestStats& stats, SimTime now, SimTime arrival) {
  const SimDuration latency = now - arrival;
  stats.latency_hist.record(latency);
  ++stats.completed;
}

}  // namespace

double RequestStats::p95_ms() const { return percentile_ms(95.0); }

double RequestStats::percentile_ms(double p) const {
  return static_cast<double>(latency_hist.percentile(p)) / 1000.0;
}

void RequestStats::merge(const RequestStats& other) {
  completed += other.completed;
  arrived += other.arrived;
  dropped += other.dropped;
  latency_hist.merge(other.latency_hist);
}

double RequestStats::throughput_per_sec(SimDuration elapsed) const {
  if (elapsed <= 0) {
    return 0;
  }
  return static_cast<double>(completed) /
         (static_cast<double>(elapsed) / static_cast<double>(units::sec));
}

// --- WorkerPoolServer ---------------------------------------------------------

WorkerPoolServer::WorkerPoolServer(container::Host& host,
                                   container::Container& target, WebConfig config)
    : host_(host),
      container_(target),
      pid_(target.spawn_process("httpd")),
      config_(config),
      workers_(detect_workers()),
      queue_limit_(config.max_queue) {
  ARV_ASSERT(config_.arrivals_per_sec >= 0);  // 0 = router-driven arrivals
  ARV_ASSERT(config_.service_cpu > 0);
  ARV_ASSERT(config_.max_queue >= 1);
  worker_trace_.push_back(workers_);
  if (config_.resize_interval > 0) {
    next_resize_ = host_.now() + config_.resize_interval;
  }
  host_.scheduler().attach(container_.cgroup(), this);
  attached_ = true;
}

WorkerPoolServer::~WorkerPoolServer() {
  if (attached_) {
    host_.scheduler().detach(container_.cgroup(), this);
  }
}

int WorkerPoolServer::detect_workers() const {
  if (config_.sizing == Sizing::kFixed) {
    ARV_ASSERT_MSG(config_.fixed_workers >= 1, "kFixed requires fixed_workers");
    return config_.fixed_workers;
  }
  // `worker_processes auto;` — one worker per CPU the server can see.
  return std::max(1, static_cast<int>(host_.sysfs().sysconf(
                         pid_, vfs::Sysconf::kNProcessorsOnln)));
}

int WorkerPoolServer::runnable_threads() const {
  // A worker is runnable while it has a request; the rest block in accept().
  // The listener/event thread is always schedulable — it is what admits
  // new connections (and in this model, what receives the tick).
  return std::max(1, static_cast<int>(std::min<std::size_t>(
                         static_cast<std::size_t>(workers_), queue_depth())));
}

void WorkerPoolServer::admit_arrivals(SimTime now, SimDuration dt) {
  if (config_.arrivals_per_sec == 0) {
    return;  // router-fed: adding 0 * dt would leave the accumulator as is
  }
  arrival_accumulator_ += config_.arrivals_per_sec * static_cast<double>(dt) /
                          static_cast<double>(units::sec);
  while (arrival_accumulator_ >= 1.0) {
    arrival_accumulator_ -= 1.0;
    ++stats_.arrived;
    if (queue_depth() >= queue_limit_) {
      ++stats_.dropped;  // listen backlog overflow
      continue;
    }
    queue_.push_back({now, config_.service_cpu});
  }
}

bool WorkerPoolServer::inject_request(SimTime now, CpuTime cost) {
  ++stats_.arrived;
  if (queue_depth() >= queue_limit_) {
    ++stats_.dropped;
    return false;
  }
  queue_.push_back({now, cost > 0 ? cost : config_.service_cpu});
  return true;
}

void WorkerPoolServer::set_queue_limit(std::size_t limit) {
  queue_limit_ = std::clamp<std::size_t>(limit, 1, config_.max_queue);
}

void WorkerPoolServer::consume(SimTime now, SimDuration dt, CpuTime grant) {
  admit_arrivals(now, dt);
  if (config_.resize_interval > 0 && now >= next_resize_) {
    next_resize_ = now + config_.resize_interval;
    const int detected = detect_workers();
    if (detected != workers_) {
      workers_ = detected;  // graceful reload
      worker_trace_.push_back(workers_);
    }
  }
  if (grant <= 0 || queue_depth() == 0) {
    return;
  }
  const int active = runnable_threads();
  const double granted_cpus = static_cast<double>(grant) / static_cast<double>(dt);
  CpuTime useful =
      static_cast<CpuTime>(static_cast<double>(grant) *
                           efficiency(std::max(1, active), granted_cpus)) +
      current_request_progress_;
  current_request_progress_ = 0;
  while (useful > 0 && head_ < queue_.size()) {
    const QueuedRequest& front = queue_[head_];
    if (useful >= front.cost) {
      useful -= front.cost;
      record_latency(stats_, now, front.arrival);
      ++head_;
    } else {
      current_request_progress_ = useful;
      useful = 0;
    }
  }
  if (2 * head_ > queue_.size()) {
    // Moves fewer requests than were popped since the last compaction.
    queue_.erase(queue_.begin(), queue_.begin() +
                                     static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

// --- CacheServer ---------------------------------------------------------------

CacheServer::CacheServer(container::Host& host, container::Container& target,
                         CacheConfig config)
    : host_(host),
      container_(target),
      pid_(target.spawn_process("mongod")),
      config_(config),
      cache_target_(detect_cache_bytes()) {
  ARV_ASSERT(config_.arrivals_per_sec > 0);
  if (config_.resize_interval > 0) {
    next_resize_ = host_.now() + config_.resize_interval;
  }
  host_.scheduler().attach(container_.cgroup(), this);
  attached_ = true;
}

CacheServer::~CacheServer() {
  if (attached_) {
    host_.scheduler().detach(container_.cgroup(), this);
    // An OOM kill may have reaped the cgroup's pages behind our back;
    // release only what is still on the manager's books.
    const Bytes release = std::min(
        cache_committed_, host_.memory().committed(container_.cgroup()));
    if (release > 0) {
      host_.memory().uncharge(container_.cgroup(), release);
    }
  }
}

Bytes CacheServer::detect_cache_bytes() const {
  if (config_.sizing == Sizing::kFixed) {
    ARV_ASSERT_MSG(config_.fixed_cache > 0, "kFixed requires fixed_cache");
    return config_.fixed_cache;
  }
  const Bytes detected_ram =
      static_cast<Bytes>(host_.sysfs().sysconf(pid_, vfs::Sysconf::kPhysPages)) *
      units::page;
  // WiredTiger: 50% of (RAM - 1 GiB), floor 256 MiB.
  return std::max<Bytes>(256 * units::MiB, (detected_ram - units::GiB) / 2);
}

double CacheServer::hit_ratio() const {
  // The cache covers a fraction of the hot dataset; the *resident* part is
  // what actually serves hits (swapped cache pages are as slow as misses).
  const Bytes resident = std::min(host_.memory().usage(container_.cgroup()),
                                  cache_committed_);
  return std::min(1.0, static_cast<double>(resident) /
                           static_cast<double>(config_.dataset));
}

void CacheServer::grow_cache(SimTime now, SimDuration /*dt*/, CpuTime grant) {
  if (host_.memory().oom_killed(container_.cgroup())) {
    return;  // the books were zeroed by the kill; never uncharge from them
  }
  if (cache_committed_ >= cache_target_) {
    // Shrink promptly when the target dropped (resize/reload).
    if (cache_committed_ > cache_target_) {
      host_.memory().uncharge(container_.cgroup(),
                              cache_committed_ - cache_target_);
      cache_committed_ = cache_target_;
    }
    return;
  }
  // Warm the cache at 512 MiB per CPU-second of service work.
  const Bytes step = std::min(cache_target_ - cache_committed_,
                              grant * 512 * units::MiB / units::sec);
  if (step <= 0) {
    return;
  }
  const auto result = host_.memory().charge(container_.cgroup(), step);
  if (result != mem::ChargeResult::kOomKilled) {
    cache_committed_ += page_align_up(step);
  }
  (void)now;
}

int CacheServer::runnable_threads() const {
  if (host_.now() < stalled_until_) {
    return 0;
  }
  return static_cast<int>(std::min(kCacheWorkerThreads, queue_.size() + 1));
}

void CacheServer::consume(SimTime now, SimDuration dt, CpuTime grant) {
  arrival_accumulator_ += config_.arrivals_per_sec * static_cast<double>(dt) /
                          static_cast<double>(units::sec);
  while (arrival_accumulator_ >= 1.0) {
    arrival_accumulator_ -= 1.0;
    ++stats_.arrived;
    queue_.push_back(now);
  }
  if (config_.resize_interval > 0 && now >= next_resize_) {
    next_resize_ = now + config_.resize_interval;
    cache_target_ = detect_cache_bytes();
  }
  if (now < stalled_until_ || grant <= 0) {
    return;
  }
  grow_cache(now, dt, grant);

  // Touching the resident cache faults back anything kswapd stole.
  const Bytes touched = cache_committed_ * grant / (5 * units::sec);
  const SimDuration swap_stall = host_.memory().touch(container_.cgroup(), touched);
  if (swap_stall > 0) {
    stalled_until_ = now + swap_stall;
    return;
  }

  const double hit = hit_ratio();
  const auto cost = static_cast<CpuTime>(
      static_cast<double>(config_.service_cpu) +
      (1.0 - hit) * static_cast<double>(kMissExtraCpu));
  CpuTime useful = grant + current_request_progress_;
  current_request_progress_ = 0;
  SimDuration stall_debt = 0;
  while (useful > 0 && !queue_.empty()) {
    if (useful >= cost) {
      useful -= cost;
      record_latency(stats_, now, queue_.front());
      queue_.pop_front();
      stall_debt += static_cast<SimDuration>(
          (1.0 - hit) * static_cast<double>(kMissStall));
    } else {
      current_request_progress_ = useful;
      useful = 0;
    }
  }
  if (stall_debt > 0) {
    stalled_until_ = now + stall_debt;
  }
}

}  // namespace arv::server
