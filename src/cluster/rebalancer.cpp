#include "src/cluster/rebalancer.h"

#include <algorithm>

#include "src/cluster/profile.h"
#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::cluster {
namespace {

/// "Zero slack" tolerance, in per-mille of the host's round capacity: idle
/// time under this counts as none (scheduling crumbs are not headroom).
/// Integer so the trigger stays in exact arithmetic.
constexpr std::int64_t kSlackEpsilonPermille = 10;
/// A target must show at least this much observed idle CPU...
constexpr std::int64_t kTargetMinSlackMillicpu = 1000;  // one whole idle core
/// ...and keep this much free memory beyond the pod's committed state.
constexpr Bytes kTargetMinFree = 256 * units::MiB;

}  // namespace

Rebalancer::Rebalancer(Cluster& cluster, RebalanceConfig config)
    : cluster_(cluster), config_(config) {
  ARV_ASSERT(config_.period > 0);
  ARV_ASSERT(config_.saturated_rounds >= 1);
  track_.resize(static_cast<std::size_t>(cluster_.host_count()));
  for (int i = 0; i < cluster_.host_count(); ++i) {
    track_[static_cast<std::size_t>(i)].last_total_slack =
        cluster_.host_slack_total(i);
  }
}

void Rebalancer::tick(SimTime now, SimDuration dt) {
  ARV_ASSERT_MSG(static_cast<int>(track_.size()) == cluster_.host_count(),
                 "hosts added after the rebalancer was constructed");
  // 1. Judge the round: did each host show any real idle time since the
  //    last one? total_slack is cumulative, so the round's slack is a delta.
  //    host_slack_total and the view arena never sync a host, so an
  //    all-idle fleet stays frozen through rebalancer rounds.
  for (int i = 0; i < cluster_.host_count(); ++i) {
    HostTrack& track = track_[static_cast<std::size_t>(i)];
    const CpuTime total = cluster_.host_slack_total(i);
    const CpuTime round_slack = total - track.last_total_slack;
    track.last_total_slack = total;
    const CpuTime round_capacity = static_cast<CpuTime>(
        cluster_.views()[static_cast<std::size_t>(i)].capacity_millicpu /
        1000 * dt);
    const CpuTime epsilon = round_capacity * kSlackEpsilonPermille / 1000;
    if (round_slack <= epsilon) {
      ++track.saturated_rounds;
    } else {
      track.saturated_rounds = 0;
    }
  }

  // 2. Victim signal. With a ProfileStore attached it already holds each
  //    pod's profiled p95 — no per-round sampling (or baseline retention)
  //    needed at all. Without one, refresh the per-pod usage deltas (who
  //    burned CPU this round) every round, not only when migrating, so the
  //    signal is always warm. Baselines are pruned first: only running pods
  //    may keep one, so a stopped/migrated/crashed pod's entry never
  //    outlives the pod.
  const FleetView& fleet = cluster_.fleet_view();
  const ProfileStore* profiles = cluster_.profiles();
  std::map<int, CpuTime> round_usage;
  if (profiles == nullptr) {
    std::erase_if(pod_last_usage_, [this](const auto& entry) {
      return !cluster_.pod(entry.first).running();
    });
    for (int id = 0; id < cluster_.pod_count(); ++id) {
      const Pod& pod = cluster_.pod(id);
      if (!pod.running()) {
        continue;
      }
      const CpuTime usage = cluster_.pod_counters(id).total_usage;
      const auto it = pod_last_usage_.find(id);
      // A freshly-landed pod has no baseline; its first round reads as zero
      // rather than as its entire lifetime burn.
      round_usage[id] = it == pod_last_usage_.end()
                            ? 0
                            : std::max<CpuTime>(0, usage - it->second);
      pod_last_usage_[id] = usage;
    }
  }

  // 3. At most one migration per round: the lowest-indexed host that has
  //    been saturated K rounds running and is out of cooldown evicts its
  //    hottest eligible pod to the roomiest feasible target.
  for (int source = 0; source < cluster_.host_count(); ++source) {
    HostTrack& track = track_[static_cast<std::size_t>(source)];
    if (!cluster_.host_up(source) ||
        track.saturated_rounds < config_.saturated_rounds ||
        now < track.cooldown_until || cluster_.pods_on(source) == 0) {
      continue;
    }

    // Victim, past its residency minimum: with profiles, the hottest pod by
    // profiled p95 (declared request until the window fills), burstiness
    // breaking ties — the spikier pod is the likelier saturation cause.
    // Without, the biggest CPU consumer this round. Ties keep the lowest id.
    int victim = -1;
    std::int64_t victim_key = -1;
    std::int64_t victim_burst = -1;
    for (int id = 0; id < cluster_.pod_count(); ++id) {
      const Pod& pod = cluster_.pod(id);
      if (!pod.running() || pod.host != source ||
          now - pod.placed_at < config_.min_residency) {
        continue;
      }
      std::int64_t key = 0;
      std::int64_t burst = 0;
      if (profiles != nullptr) {
        const PodProfile profile = profiles->profile(id);
        key = profile.samples > 0 ? profile.cpu_p95_millicpu
                                  : pod.spec.resources.request_millicpu;
        burst = profile.burst_permille;
      } else {
        key = round_usage[id];
      }
      if (key > victim_key || (key == victim_key && burst > victim_burst)) {
        victim = id;
        victim_key = key;
        victim_burst = burst;
      }
    }
    if (victim < 0) {
      continue;
    }
    const Bytes victim_bytes = cluster_.pod_counters(victim).committed;

    // Target: best observed headroom among out-of-cooldown hosts that can
    // absorb the victim's state plus the configured reserves. Ties go to
    // the lowest index — the rebalancer never draws randomness, so adding
    // it to a scenario cannot shift placement's rng stream.
    int target = -1;
    std::int64_t target_score = -1;
    for (int i = 0; i < cluster_.host_count(); ++i) {
      if (i == source || !cluster_.host_up(i) ||
          now < track_[static_cast<std::size_t>(i)].cooldown_until) {
        continue;
      }
      // The snapshot refreshed above: same values host_view(i) would build
      // (nothing the rebalancer mutates before this point changes a view),
      // without re-deriving N views per scan.
      const HostView& view = fleet.hosts[static_cast<std::size_t>(i)];
      if (view.cordoned) {
        continue;  // the cluster autoscaler is parking or draining it
      }
      if (view.slack_millicpu < kTargetMinSlackMillicpu ||
          view.free_memory < victim_bytes + kTargetMinFree) {
        continue;
      }
      // frac_permille: byte-denominated free memory at Pi/Ei capacities
      // would overflow a plain int64 multiply (same bug as placement's
      // scoring, fixed together).
      const std::int64_t cpu_headroom =
          frac_permille(view.slack_millicpu, view.capacity_millicpu);
      const std::int64_t mem_headroom =
          frac_permille(view.free_memory - victim_bytes, view.capacity_memory);
      const std::int64_t score = std::min(cpu_headroom, mem_headroom);
      if (score > target_score) {
        target = i;
        target_score = score;
      }
    }
    if (target < 0) {
      continue;
    }

    ARV_LOG(kInfo, "rebalance",
            "h%d saturated %d rounds: migrating pod %d -> h%d", source,
            track.saturated_rounds, victim, target);
    cluster_.migrate_pod(victim, target);
    pod_last_usage_.erase(victim);  // baseline restarts on the new host
    track.saturated_rounds = 0;
    track.cooldown_until = now + config_.cooldown;
    track_[static_cast<std::size_t>(target)].cooldown_until = now + config_.cooldown;
    ++migrations_;
    break;  // one migration per round
  }
}

}  // namespace arv::cluster
