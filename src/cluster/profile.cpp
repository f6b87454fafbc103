#include "src/cluster/profile.h"

#include <algorithm>
#include <vector>

#include "src/container/container.h"
#include "src/util/assert.h"
#include "src/util/stats.h"

namespace arv::cluster {
namespace {

__extension__ using Wide = __int128;
__extension__ using UWide = unsigned __int128;

/// Exact integer square root (Newton), so correlation is bit-identical on
/// every platform — no sqrt(double) anywhere near the decision path.
UWide isqrt(UWide v) {
  if (v == 0) {
    return 0;
  }
  UWide x = v;
  UWide y = (x + 1) / 2;
  while (y < x) {
    x = y;
    y = (x + v / x) / 2;
  }
  return x;
}

/// Pearson correlation of the trailing `n` samples of two series, in
/// per-mille of [-1000, 1000]. 0 for flat series (zero variance).
std::int64_t pearson_permille(const std::deque<std::int64_t>& xs,
                              const std::deque<std::int64_t>& ys, int n) {
  Wide sx = 0;
  Wide sy = 0;
  Wide sxx = 0;
  Wide syy = 0;
  Wide sxy = 0;
  const auto x0 = xs.end() - n;
  const auto y0 = ys.end() - n;
  for (int i = 0; i < n; ++i) {
    const Wide x = *(x0 + i);
    const Wide y = *(y0 + i);
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  const Wide var_x = static_cast<Wide>(n) * sxx - sx * sx;
  const Wide var_y = static_cast<Wide>(n) * syy - sy * sy;
  if (var_x <= 0 || var_y <= 0) {
    return 0;  // a flat series co-varies with nothing
  }
  const Wide num = static_cast<Wide>(n) * sxy - sx * sy;
  const Wide den = static_cast<Wide>(isqrt(static_cast<UWide>(var_x))) *
                   static_cast<Wide>(isqrt(static_cast<UWide>(var_y)));
  if (den == 0) {
    return 0;
  }
  const Wide r = num * 1000 / den;
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(r), -1000, 1000);
}

}  // namespace

ProfileStore::ProfileStore(Cluster& cluster, ProfileConfig config)
    : cluster_(cluster), config_(config) {
  ARV_ASSERT(config_.period > 0);
  ARV_ASSERT(config_.window_rounds >= 2);
  ARV_ASSERT(config_.min_samples >= 2);
  ARV_ASSERT(config_.min_samples <= config_.window_rounds);
  cluster_.attach_profiles(this);
}

ProfileStore::~ProfileStore() { cluster_.attach_profiles(nullptr); }

void ProfileStore::tick(SimTime /*now*/, SimDuration dt) {
  ++rounds_;
  // Per-service round sums accumulate while pods sample; every *known*
  // service then pushes exactly one value per round (0 when idle or gone),
  // keeping all series aligned for the pairwise correlation window.
  std::map<std::string, std::int64_t> service_round;
  for (int id = 0; id < cluster_.pod_count(); ++id) {
    const Pod& pod = cluster_.pod(id);
    if (pod.host < 0) {
      track_.erase(id);  // stopped pods hold no window at all
      continue;
    }
    if (!pod.running()) {
      continue;  // in flight or failed: keep the window, skip the round
    }
    PodTrack& track = track_[id];
    const cgroup::CgroupId cg = pod.container->cgroup();
    const PodCounters counters = cluster_.pod_counters(id);
    const CpuTime usage = counters.total_usage;
    if (track.host != pod.host || track.cgroup != cg) {
      // First sight, or the pod re-landed (migration/restart) since the last
      // round: reset the usage baseline so the relocation itself never reads
      // as a burst. The window survives — the usage *shape* is a property of
      // the workload, not of the host it happens to run on.
      track.host = pod.host;
      track.cgroup = cg;
      track.last_usage = usage;
      continue;
    }
    const CpuTime burned = std::max<CpuTime>(0, usage - track.last_usage);
    track.last_usage = usage;
    const std::int64_t millicpu = dt > 0 ? burned * 1000 / dt : 0;
    track.cpu_millicpu.push_back(millicpu);
    track.mem_bytes.push_back(counters.committed);
    while (static_cast<int>(track.cpu_millicpu.size()) > config_.window_rounds) {
      track.cpu_millicpu.pop_front();
    }
    while (static_cast<int>(track.mem_bytes.size()) > config_.window_rounds) {
      track.mem_bytes.pop_front();
    }
    recompute(track);
    service_round[pod.spec.service_name()] += millicpu;
  }
  for (const auto& [service, millicpu] : service_round) {
    service_series_[service];  // learn new services before the push loop
    (void)millicpu;
  }
  for (auto& [service, series] : service_series_) {
    const auto it = service_round.find(service);
    series.push_back(it == service_round.end() ? 0 : it->second);
    while (static_cast<int>(series.size()) > config_.window_rounds) {
      series.pop_front();
    }
  }
}

void ProfileStore::recompute(PodTrack& track) {
  const int n = static_cast<int>(track.cpu_millicpu.size());
  if (n < config_.min_samples) {
    track.cached = PodProfile{};
    return;
  }
  PodProfile p;
  p.cpu_p50_millicpu = nearest_rank(track.cpu_millicpu, 50);
  p.cpu_p95_millicpu =
      std::max(p.cpu_p50_millicpu, nearest_rank(track.cpu_millicpu, 95));
  p.mem_p50 = nearest_rank(track.mem_bytes, 50);
  p.mem_p95 = std::max(p.mem_p50, nearest_rank(track.mem_bytes, 95));
  p.burst_permille =
      p.cpu_p95_millicpu * 1000 / std::max<std::int64_t>(1, p.cpu_p50_millicpu);
  p.samples = n;
  track.cached = p;
}

PodProfile ProfileStore::profile(int pod_id) const {
  const auto it = track_.find(pod_id);
  return it == track_.end() ? PodProfile{} : it->second.cached;
}

std::int64_t ProfileStore::service_correlation_permille(
    const std::string& a, const std::string& b) const {
  const auto ia = service_series_.find(a);
  const auto ib = service_series_.find(b);
  if (ia == service_series_.end() || ib == service_series_.end()) {
    return 0;
  }
  const int n =
      static_cast<int>(std::min(ia->second.size(), ib->second.size()));
  if (n < config_.min_samples) {
    return 0;
  }
  return pearson_permille(ia->second, ib->second, n);
}

}  // namespace arv::cluster
