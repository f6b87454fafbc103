// ProfileStore — per-pod usage profiles (C-Balancer, arXiv:2009.08912).
//
// C-Balancer's argument: scheduling from *profiles* (what a container's usage
// distribution looks like) beats scheduling from instantaneous load (what it
// happens to be doing this round). The store is an ordinary cluster tick
// component: every round it samples each running pod's CPU burn and committed
// memory, and maintains over a sliding window
//
//   * CPU p50/p95 (milli-CPUs) and memory p50/p95 (bytes), nearest-rank, all
//     integer, so profiles are bit-identical on every platform;
//   * burstiness = cpu p95 / p50, in per-mille (1000 = flat, 3000 = spiky);
//   * per-service round-usage series, from which pairwise *correlation*
//     between services is computed on demand (integer Pearson, widened
//     through __int128) — the anti-colocation signal: two services whose
//     bursts line up should not share a host.
//
// Baselines are (host, cgroup)-keyed like the VPA's: a pod that migrates or
// restarts resets its *baseline* wherever it lands, so a relocation never
// reads as a usage spike — but the percentile window survives the move (the
// usage shape is a property of the workload, not the host). Profiles for
// stopped pods are pruned.
//
// The store is the only owner of these numbers: the "profile" placement
// strategy, the Rebalancer's victim selection and /sys/arv/fleet/pods read
// profile() live (through FleetView::profiles or Cluster::profiles()), so a
// pruned pod reads as unprofiled at once.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/cluster/cluster.h"
#include "src/sim/engine.h"

namespace arv::cluster {

struct ProfileConfig {
  /// Sampling-round length (one usage sample per running pod per round).
  SimDuration period = 100 * units::msec;
  /// Sliding-window length, in rounds, over which percentiles are taken.
  int window_rounds = 32;
  /// Profiles report as profiled (samples > 0 consumers act on) only once
  /// the window holds at least this many rounds; correlation queries likewise.
  int min_samples = 8;
};

/// The queryable per-pod result.
struct PodProfile {
  std::int64_t cpu_p50_millicpu = 0;
  std::int64_t cpu_p95_millicpu = 0;
  Bytes mem_p50 = 0;
  Bytes mem_p95 = 0;
  std::int64_t burst_permille = 0;  ///< cpu p95/p50 per-mille
  int samples = 0;                  ///< 0 until min_samples rounds observed
};

class ProfileStore : public sim::TickComponent {
 public:
  /// Attaches itself to the cluster (Cluster::attach_profiles) so the fleet
  /// snapshot points at it; detaches on destruction.
  explicit ProfileStore(Cluster& cluster, ProfileConfig config = {});
  ~ProfileStore() override;

  // --- sim::TickComponent (dispatched by Cluster) ---------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.profiles"; }
  SimDuration tick_period() const override { return config_.period; }

  // --- queries --------------------------------------------------------------
  /// The pod's cached profile; samples == 0 while unprofiled (window not yet
  /// at min_samples, pod unknown, or pod stopped).
  PodProfile profile(int pod_id) const;

  /// Pearson correlation of two services' aggregated round-usage series over
  /// the shared window, in per-mille of [-1000, 1000] — the signal the
  /// "profile" strategy anti-colocates on (replicas of a bursty service
  /// correlate through their shared arrival stream even when individual
  /// replicas' windows are young). 0 when either window is shorter than
  /// min_samples or either series is flat (no co-variation to speak of).
  std::int64_t service_correlation_permille(const std::string& a,
                                            const std::string& b) const;

  int min_samples() const { return config_.min_samples; }
  /// Pods currently tracked (bounded by the live — running, in-flight, or
  /// failed-awaiting-restart — pod count; stopped pods are pruned).
  int tracked_pods() const { return static_cast<int>(track_.size()); }
  std::uint64_t rounds() const { return rounds_; }

 private:
  struct PodTrack {
    int host = -1;  ///< baseline invalid after migration/failover/restart
    cgroup::CgroupId cgroup = 0;
    CpuTime last_usage = 0;
    std::deque<std::int64_t> cpu_millicpu;  ///< per-round usage samples
    std::deque<Bytes> mem_bytes;
    PodProfile cached;
  };

  void recompute(PodTrack& track);

  Cluster& cluster_;
  ProfileConfig config_;
  std::map<int, PodTrack> track_;  ///< pod id -> window (ordered => determinism)
  /// Per-service per-round aggregate CPU series (milli-CPUs), same window.
  std::map<std::string, std::deque<std::int64_t>> service_series_;
  std::uint64_t rounds_ = 0;
};

}  // namespace arv::cluster
