#include "src/cluster/recovery.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::cluster {
namespace {

/// A pod that stays up this long after a restart leaves the crash loop (its
/// next crash backs off from `backoff_base` again).
constexpr SimDuration kResetAfter = 10 * units::sec;

}  // namespace

// --- FailureDetector ----------------------------------------------------------

FailureDetector::FailureDetector(Cluster& cluster, DetectorConfig config)
    : cluster_(cluster),
      config_(config) {
  ARV_ASSERT(config_.period > 0);
  ARV_ASSERT(config_.miss_threshold >= 1);
  track_.resize(static_cast<std::size_t>(cluster_.host_count()));
}

int FailureDetector::declared_dead() const {
  int dead = 0;
  for (const HostTrack& track : track_) {
    dead += track.declared ? 1 : 0;
  }
  return dead;
}

void FailureDetector::tick(SimTime /*now*/, SimDuration /*dt*/) {
  ARV_ASSERT_MSG(static_cast<int>(track_.size()) == cluster_.host_count(),
                 "hosts added after the detector was constructed");
  // 1. One observation round: an up host answers its heartbeat, a down one
  //    misses it. Declaration waits for miss_threshold consecutive misses
  //    so a fast reboot (a blip) never triggers failover.
  for (int i = 0; i < cluster_.host_count(); ++i) {
    HostTrack& track = track_[static_cast<std::size_t>(i)];
    if (cluster_.host_up(i)) {
      track.missed = 0;
      track.declared = false;
      continue;
    }
    ++track.missed;
    if (!track.declared && track.missed >= config_.miss_threshold) {
      track.declared = true;
      ++declarations_;
      ARV_LOG(kWarn, "detector", "h%d declared dead after %d missed rounds",
              i, track.missed);
    }
  }

  // 2. Evacuate: every failed pod stranded on a declared-dead host goes to
  //    the "effective" strategy's best up host (refugees go toward observed
  //    headroom). The fleet view is copied once and then *adjusted in
  //    place* (FleetView::claim) as refugees land. Re-reading
  //    fleet_view() after each failover — the old behaviour — is worse than
  //    useless here: the refugee has not burned a cycle yet, so the fresh
  //    read restores the target's pre-landing observed slack/free-memory and
  //    every refugee in the burst races into the same host, blowing past its
  //    real headroom. Reservations deducted up front for pods already in
  //    flight (migrations) keep their reserved-but-unobserved share from
  //    being promised twice.
  FleetView views = cluster_.fleet_view();
  for (int id = 0; id < cluster_.pod_count(); ++id) {
    const Pod& pod = cluster_.pod(id);
    if (pod.in_flight()) {
      // The ledger already counts the reservation (the snapshot includes
      // it), but the *observed* axes the effective strategy scores on do
      // not; deduct the declared request so the landing slot stays held.
      views.reserve(pod.host, pod.spec.resources);
    }
  }
  for (int id = 0; id < cluster_.pod_count(); ++id) {
    const Pod& pod = cluster_.pod(id);
    if (!pod.failed || pod.host < 0 ||
        !track_[static_cast<std::size_t>(pod.host)].declared) {
      continue;
    }
    const int target =
        select_host(Strategy::kEffective, pod.spec, views, cluster_.rng());
    if (target < 0) {
      ++deferred_;
      continue;
    }
    ARV_LOG(kInfo, "detector", "failing pod %d over: h%d -> h%d", id,
            pod.host, target);
    cluster_.failover_pod(id, target);
    ++failovers_initiated_;
    // Charge the refugee against the target's view so the next refugee sees
    // the post-landing headroom, not the snapshot.
    views.claim(target, pod.spec.resources);
  }
}

// --- RestartManager -----------------------------------------------------------

RestartManager::RestartManager(Cluster& cluster, RestartConfig config)
    : cluster_(cluster), config_(config) {
  ARV_ASSERT(config_.period > 0);
  ARV_ASSERT(config_.backoff_base > 0);
  ARV_ASSERT(config_.backoff_cap >= config_.backoff_base);
}

RestartManager::PodTrack& RestartManager::track(int pod_id) {
  if (static_cast<std::size_t>(pod_id) >= track_.size()) {
    track_.resize(static_cast<std::size_t>(pod_id) + 1);
  }
  return track_[static_cast<std::size_t>(pod_id)];
}

int RestartManager::crash_streak(int pod_id) const {
  return static_cast<std::size_t>(pod_id) < track_.size()
             ? track_[static_cast<std::size_t>(pod_id)].streak
             : 0;
}

SimDuration RestartManager::backoff_for(int streak) const {
  ARV_ASSERT(streak >= 1);
  // base * 2^(streak-1), saturating at the cap (shift bounded so a long
  // crash loop cannot overflow the integer delay).
  SimDuration delay = config_.backoff_base;
  for (int i = 1; i < streak && delay < config_.backoff_cap; ++i) {
    delay *= 2;
  }
  return std::min(delay, config_.backoff_cap);
}

void RestartManager::tick(SimTime now, SimDuration /*dt*/) {
  for (int id = 0; id < cluster_.pod_count(); ++id) {
    const Pod& pod = cluster_.pod(id);
    PodTrack& state = track(id);
    if (pod.running()) {
      if (state.streak > 0 && now - pod.placed_at >= kResetAfter) {
        state.streak = 0;  // stable: the next crash is a fresh incident
      }
      if (!cluster_.pod_counters(id).oom_killed) {
        continue;
      }
      // The kernel OOM-killed the pod's process; surface it as a crash so
      // it enters the same CrashLoopBackOff path as any other death.
      ARV_LOG(kWarn, "restart", "pod %d oom-killed on h%d", id, pod.host);
      cluster_.crash_pod(id);
      ++oom_crashes_;
    }
    if (!pod.failed || pod.host < 0 || !cluster_.host_up(pod.host)) {
      // Stopped, in flight, or stranded on a down host (the detector's
      // case). Any scheduled attempt is void — after a reboot the pod
      // re-enters backoff from scratch at the next scan.
      state.next_attempt = -1;
      continue;
    }
    if (state.next_attempt < 0) {
      ++state.streak;
      state.next_attempt = now + backoff_for(state.streak);
      continue;
    }
    if (now >= state.next_attempt) {
      state.next_attempt = -1;
      cluster_.restart_pod(id);
      ++restarts_issued_;
    }
  }
}

}  // namespace arv::cluster
