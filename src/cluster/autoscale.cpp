#include "src/cluster/autoscale.h"

#include <algorithm>
#include <limits>

#include "src/cluster/pod_workloads.h"
#include "src/container/host.h"
#include "src/util/assert.h"
#include "src/util/log.h"
#include "src/util/stats.h"

namespace arv::cluster {
namespace {

/// HPA target utilization of per-replica *effective* capacity, per-mille:
/// the controller sizes the service so demand lands at this fraction of
/// what the replicas' resource views say they can actually use.
constexpr std::int64_t kTargetUtilizationPermille = 700;
/// Replicas the HPA removes in one decision round, at most.
constexpr int kMaxScaleDown = 1;

/// VPA hard limits are p95 * margin (per-mille; 1200 = +20 % headroom).
constexpr std::int64_t kLimitMarginPermille = 1200;
/// The VPA rewrites a knob only when the recommendation drifts at least this
/// far (per-mille) from the last applied value — ARC-V's guard against
/// rewrite churn.
constexpr std::int64_t kMinChangePermille = 100;
/// VPA recommendation floors: a briefly-idle pod never gets starved to zero.
constexpr std::int64_t kMinMillicpu = 100;
constexpr Bytes kMinMemory = 64 * units::MiB;

/// CA drain pace (the migration path pays a freeze per pod; one per round
/// keeps the disturbance bounded, mirroring the Rebalancer's pin).
constexpr int kMaxDrainMigrationsPerRound = 1;

/// The HPA's replica template with its defaults filled in.
PodSpec replica_defaults(PodSpec spec) {
  if (spec.name.empty()) {
    spec.name = "hpa";
  }
  if (spec.service.empty()) {
    // Replicas get distinct pod names (<name>-<N>); the shared service ties
    // them together for the profile machinery and "profile" placement.
    spec.service = spec.name;
  }
  return spec;
}

}  // namespace

// --- HorizontalAutoscaler -----------------------------------------------------

HorizontalAutoscaler::HorizontalAutoscaler(Cluster& cluster,
                                           RequestRouter& router,
                                           PodSpec replica_template,
                                           server::WebConfig web,
                                           HpaConfig config)
    : cluster_(cluster),
      router_(router),
      template_(replica_defaults(std::move(replica_template))),
      web_(web),
      config_(config),
      telemetry_(cluster, "autoscale/" + template_.name) {
  ARV_ASSERT(config_.period > 0);
  ARV_ASSERT(config_.min_replicas >= 0);
  ARV_ASSERT(config_.max_replicas >= config_.min_replicas);
  ARV_ASSERT(config_.request_cpu > 0);
  ARV_ASSERT(config_.max_surge >= 1);
  // Replicas behind the router must not self-generate traffic.
  web_.arrivals_per_sec = 0;

  telemetry_.gauge("autoscale.replicas", template_.name,
                   [this] { return replicas(); });
  telemetry_.counter("autoscale.scale_ups", template_.name, scale_ups_);
  telemetry_.counter("autoscale.scale_downs", template_.name, scale_downs_);
  telemetry_.file("replicas",
                  [this] { return std::to_string(replicas()) + "\n"; });
  telemetry_.file("desired", last_desired_);
  telemetry_.file("scale_ups", scale_ups_);
  telemetry_.file("scale_downs", scale_downs_);
  telemetry_.file("held", held_);
  telemetry_.file("deferred", deferred_);
}

void HorizontalAutoscaler::adopt(int pod_id) {
  ARV_ASSERT(pod_id >= 0 && pod_id < cluster_.pod_count());
  ARV_ASSERT_MSG(std::find(managed_.begin(), managed_.end(), pod_id) ==
                     managed_.end(),
                 "pod already managed");
  managed_.push_back(pod_id);
}

int HorizontalAutoscaler::replicas() const {
  int count = 0;
  for (const int id : managed_) {
    // Running, in flight, or failed-awaiting-recovery all hold a ledger
    // slot; only a stopped pod (host == -1) has truly left the set.
    if (cluster_.pod(id).host >= 0) {
      ++count;
    }
  }
  return count;
}

std::int64_t HorizontalAutoscaler::effective_millicpu_per_replica() const {
  std::int64_t sum = 0;
  int observed = 0;
  for (const int id : managed_) {
    const Pod& pod = cluster_.pod(id);
    if (!pod.running()) {
      continue;
    }
    if (const auto view = pod.container->resource_view()) {
      sum += static_cast<std::int64_t>(view->effective_cpus()) * 1000;
      ++observed;
    }
  }
  if (observed > 0) {
    return std::max<std::int64_t>(1, sum / observed);
  }
  // No live view to consult (views disabled, or no replica running yet):
  // fall back to the template's declared CPU, the only number left.
  const auto& r = template_.resources;
  if (r.limit_millicpu > 0) {
    return r.limit_millicpu;
  }
  if (r.request_millicpu > 0) {
    return r.request_millicpu;
  }
  return 1000;  // one core
}

int HorizontalAutoscaler::place_replica(FleetView& views) {
  PodSpec spec = template_;
  spec.name = template_.name + "-" + std::to_string(created_);
  // "effective": new replicas land on observed headroom.
  const int target =
      select_host(Strategy::kEffective, spec, views, cluster_.rng());
  if (target < 0) {
    return -1;
  }
  ++created_;
  const int pod = cluster_.create_pod(target, spec, web_replica(web_));
  managed_.push_back(pod);
  router_.add_replica(pod);
  views.claim(target, spec.resources);
  ARV_LOG(kInfo, "hpa", "%s scaled up: pod %d -> h%d", template_.name.c_str(),
          pod, target);
  return pod;
}

void HorizontalAutoscaler::tick(SimTime now, SimDuration /*dt*/) {
  // 1. Observe demand: arrivals the router generated since the last round.
  const std::uint64_t generated = router_.generated();
  const auto arrived = static_cast<std::int64_t>(generated - last_generated_);
  last_generated_ = generated;

  // 2. Recommend: how many replicas keep demand at the target fraction of
  //    what one replica can *effectively* serve per round. All integer.
  const int current = replicas();
  const std::int64_t per_replica_millicpu = effective_millicpu_per_replica();
  const std::int64_t capacity_us = per_replica_millicpu * config_.period / 1000;
  const std::int64_t budget_us = std::max<std::int64_t>(
      1, kTargetUtilizationPermille * capacity_us / 1000);
  const std::int64_t demand_us = arrived * config_.request_cpu;
  int desired = static_cast<int>((demand_us + budget_us - 1) / budget_us);
  desired = std::clamp(desired, config_.min_replicas, config_.max_replicas);
  last_desired_ = desired;

  // Trailing recommendations for the scale-down window.
  recent_desired_.emplace_back(now, desired);
  while (!recent_desired_.empty() &&
         now - recent_desired_.front().first > config_.down_stabilization) {
    recent_desired_.pop_front();
  }

  // 3. Scale up, once the breach has lasted up_stabilization. above_since_
  //    stays armed while under-provisioned, so a max_surge-limited ramp
  //    continues every round instead of re-waiting the window.
  if (desired > current) {
    if (above_since_ < 0) {
      above_since_ = now;
    }
    if (now - above_since_ < config_.up_stabilization) {
      ++held_;
      return;
    }
    const int add = std::min(desired - current, config_.max_surge);
    // A surge places several replicas in one round: copy the fleet snapshot
    // and claim() each landing so later replicas see post-landing headroom.
    FleetView views = cluster_.fleet_view();
    for (int i = 0; i < add; ++i) {
      if (place_replica(views) < 0) {
        ++deferred_;  // no schedulable host fits; retry next round
        break;
      }
      ++scale_ups_;
    }
    return;
  }
  above_since_ = -1;

  // 4. Scale down to the *maximum* recommendation of the trailing window —
  //    a momentary lull never sheds capacity the window says is needed.
  int window_max = desired;
  for (const auto& [at, recommended] : recent_desired_) {
    window_max = std::max(window_max, recommended);
  }
  if (window_max >= current) {
    if (desired < current) {
      ++held_;  // raw recommendation says shrink; the window disagrees
    }
    return;
  }
  int remove = std::min(current - window_max, kMaxScaleDown);
  // Newest replicas go first (highest pod id in the managed list).
  for (auto it = managed_.rbegin(); it != managed_.rend() && remove > 0;
       ++it) {
    const Pod& pod = cluster_.pod(*it);
    if (pod.host < 0 || pod.failed) {
      continue;  // already gone, or the recovery path owns it
    }
    ARV_LOG(kInfo, "hpa", "%s scaled down: stopping pod %d",
            template_.name.c_str(), *it);
    cluster_.stop_pod(*it);
    ++scale_downs_;
    --remove;
  }
}

// --- VerticalRecommender ------------------------------------------------------

VerticalRecommender::VerticalRecommender(Cluster& cluster, VpaConfig config)
    : cluster_(cluster), config_(config), telemetry_(cluster, "vpa") {
  ARV_ASSERT(config_.period > 0);
  ARV_ASSERT(config_.window_rounds >= 2);
  ARV_ASSERT(config_.recommend_every >= 1);
  telemetry_.counter("vpa.rewrites", "", rewrites_);
  telemetry_.file("rewrites", rewrites_);
  telemetry_.file("cpu_raised", cpu_raised_);
  telemetry_.file("cpu_lowered", cpu_lowered_);
  telemetry_.file("mem_raised", mem_raised_);
  telemetry_.file("mem_lowered", mem_lowered_);
  telemetry_.file("held", held_);
}

void VerticalRecommender::tick(SimTime /*now*/, SimDuration dt) {
  for (int id = 0; id < cluster_.pod_count(); ++id) {
    Pod& pod = cluster_.pod(id);
    if (!pod.running()) {
      track_.erase(id);  // window restarts fresh wherever the pod lands
      continue;
    }
    PodTrack& track = track_[id];
    const cgroup::CgroupId cg = pod.container->cgroup();
    const PodCounters counters = cluster_.pod_counters(id);
    const CpuTime usage = counters.total_usage;
    if (track.host != pod.host || track.cgroup != cg) {
      // First sight, or the pod re-landed (migration/restart) since the
      // last sample: reset the usage baseline, sample next round.
      track.host = pod.host;
      track.cgroup = cg;
      track.last_usage = usage;
      continue;
    }
    const CpuTime burned = std::max<CpuTime>(0, usage - track.last_usage);
    track.last_usage = usage;
    track.cpu_millicpu.push_back(dt > 0 ? burned * 1000 / dt : 0);
    track.mem_bytes.push_back(counters.committed);
    while (static_cast<int>(track.cpu_millicpu.size()) > config_.window_rounds) {
      track.cpu_millicpu.pop_front();
    }
    while (static_cast<int>(track.mem_bytes.size()) > config_.window_rounds) {
      track.mem_bytes.pop_front();
    }
    ++track.rounds;
    const int warmup = std::max(2, config_.window_rounds / 2);
    if (track.rounds % config_.recommend_every == 0 &&
        static_cast<int>(track.cpu_millicpu.size()) >= warmup) {
      recommend(pod, track);
    }
  }
}

void VerticalRecommender::recommend(Pod& pod, PodTrack& track) {
  // The rewrites below mutate the pod's host: like every mutator, bring a
  // frozen host to cluster time and mark its fleet row first.
  cluster_.host(pod.host);
  const std::int64_t p50_cpu =
      std::max(kMinMillicpu, nearest_rank(track.cpu_millicpu, 50));
  const std::int64_t p95_cpu =
      std::max(p50_cpu, nearest_rank(track.cpu_millicpu, 95));
  const Bytes p50_mem =
      std::max(kMinMemory, nearest_rank(track.mem_bytes, 50));
  const Bytes p95_mem = std::max(p50_mem, nearest_rank(track.mem_bytes, 95));

  // Hysteresis: apply only when the recommendation drifted min_change past
  // the last applied value (0 = nothing applied yet, always apply).
  const auto drifted = [](std::int64_t proposed, std::int64_t applied) {
    if (applied <= 0) {
      return true;
    }
    const std::int64_t delta =
        proposed > applied ? proposed - applied : applied - proposed;
    // frac_permille clamps at 1000, which still reads as "drifted" for any
    // sane min_change; it is the overflow-safe ratio at byte magnitudes.
    return frac_permille(delta, applied) > kMinChangePermille;
  };

  bool rewrote = false;

  // cpu.shares from p50 (the kubelet request mapping, driven by observation).
  const std::int64_t shares =
      std::max<std::int64_t>(2, p50_cpu * 1024 / 1000);
  if (drifted(shares, track.applied_shares)) {
    pod.container->update_cpu_shares(shares);
    (track.applied_shares > 0 && shares < track.applied_shares)
        ? ++cpu_lowered_
        : ++cpu_raised_;
    track.applied_shares = shares;
    rewrote = true;
  } else {
    ++held_;
  }

  // cfs_quota from p95 + margin — but only for quota-capped pods. Burstable
  // pods are the point of the throttle-free mode: never give them a quota.
  if (pod.spec.cpu_mode == CpuMode::kQuotaCapped) {
    const std::int64_t quota_millicpu =
        std::max(kMinMillicpu, p95_cpu * kLimitMarginPermille / 1000);
    if (drifted(quota_millicpu, track.applied_quota_millicpu)) {
      // MilliCPUToQuota at the default 100 ms CFS period.
      pod.container->update_cfs_quota(quota_millicpu * 100'000 / 1000);
      (track.applied_quota_millicpu > 0 &&
       quota_millicpu < track.applied_quota_millicpu)
          ? ++cpu_lowered_
          : ++cpu_raised_;
      track.applied_quota_millicpu = quota_millicpu;
      rewrote = true;
    } else {
      ++held_;
    }
  }

  // Memory: soft limit at p50, hard limit at p95 + margin — floored above
  // what the pod has committed *right now*, so a shrinking recommendation
  // can never OOM-kill the pod it is sizing (it only caps future growth).
  Bytes hard =
      std::max<Bytes>(p95_mem * kLimitMarginPermille / 1000, p50_mem);
  const Bytes committed = cluster_.pod_counters(pod.id).committed;
  hard = std::max(hard, committed + committed / 8 + units::MiB);
  const Bytes soft = std::min(p50_mem, hard);
  if (drifted(static_cast<std::int64_t>(hard),
              static_cast<std::int64_t>(track.applied_hard))) {
    pod.container->update_mem_limit(hard);
    (track.applied_hard > 0 && hard < track.applied_hard) ? ++mem_lowered_
                                                          : ++mem_raised_;
    track.applied_hard = hard;
    rewrote = true;
  } else {
    ++held_;
  }
  if (drifted(static_cast<std::int64_t>(soft),
              static_cast<std::int64_t>(track.applied_soft))) {
    pod.container->update_mem_soft_limit(soft);
    track.applied_soft = soft;
    rewrote = true;
  }

  if (rewrote) {
    ++rewrites_;
    ARV_LOG(kDebug, "vpa",
            "pod %d resized: shares=%lld quota=%lldm soft=%lld hard=%lld",
            pod.id, static_cast<long long>(track.applied_shares),
            static_cast<long long>(track.applied_quota_millicpu),
            static_cast<long long>(track.applied_soft),
            static_cast<long long>(track.applied_hard));
  }
}

// --- ClusterAutoscaler --------------------------------------------------------

ClusterAutoscaler::ClusterAutoscaler(Cluster& cluster, CaConfig config)
    : cluster_(cluster),
      config_(config),
      telemetry_(cluster, "autoscale/cluster") {
  ARV_ASSERT(config_.period > 0);
  ARV_ASSERT(config_.min_hosts >= 1);
  ARV_ASSERT(config_.add_below_permille < config_.drain_above_permille);
  ARV_ASSERT(config_.band_rounds >= 1);
  telemetry_.gauge("autoscale.hosts", "",
                   [this] { return cluster_.active_hosts(); });
  telemetry_.counter("autoscale.hosts_added", "", hosts_added_);
  telemetry_.counter("autoscale.hosts_drained", "", hosts_drained_);
  telemetry_.file("hosts", [this] {
    return std::to_string(cluster_.active_hosts()) + "\n";
  });
  telemetry_.file("slack_permille", last_slack_permille_);
  telemetry_.file("hosts_added", hosts_added_);
  telemetry_.file("hosts_drained", hosts_drained_);
  telemetry_.file("drain_migrations", drain_migrations_);
  telemetry_.file("deferred", deferred_);
}

void ClusterAutoscaler::continue_drain(SimTime now) {
  if (!cluster_.host_up(draining_)) {
    // The victim crashed mid-drain. Its pods belong to the failure path
    // now; leave the host cordoned (it was on its way out regardless).
    draining_ = -1;
    ++drains_cancelled_;
    return;
  }
  if (cluster_.pods_on(draining_) == 0) {
    ARV_LOG(kInfo, "ca", "host h%d drained", draining_);
    ++hosts_drained_;
    draining_ = -1;
    cooldown_until_ = now + config_.cooldown;
    return;
  }
  // Evict up to the per-round budget through the normal migration path.
  // The draining host is cordoned, so the strategy can never bounce a pod
  // back onto it. Failed/in-flight pods resolve through their own paths
  // first; pods_on() keeps the drain open until the ledger is empty.
  FleetView views = cluster_.fleet_view();
  int budget = kMaxDrainMigrationsPerRound;
  for (int id = 0; id < cluster_.pod_count() && budget > 0; ++id) {
    const Pod& pod = cluster_.pod(id);
    if (pod.host != draining_ || !pod.running()) {
      continue;
    }
    // "effective": drained pods land on observed headroom.
    const int target =
        select_host(Strategy::kEffective, pod.spec, views, cluster_.rng());
    if (target < 0) {
      ++deferred_;  // nowhere to put it this round; drain stays open
      continue;
    }
    ARV_LOG(kInfo, "ca", "draining h%d: migrating pod %d -> h%d", draining_,
            id, target);
    cluster_.migrate_pod(id, target);
    views.claim(target, pod.spec.resources);
    ++drain_migrations_;
    --budget;
  }
}

void ClusterAutoscaler::tick(SimTime now, SimDuration /*dt*/) {
  if (draining_ >= 0) {
    continue_drain(now);
  }

  // Fleet-wide effective slack over the *active* hosts (parked and dead
  // machines are not capacity). The published snapshot is fresh —
  // components dispatch after the boundary fleet refresh each tick.
  if (cluster_.views().empty()) {
    (void)cluster_.fleet_view();  // tests tick before the first step
  }
  const std::vector<HostView>& views = cluster_.views();
  std::int64_t slack = 0;
  std::int64_t capacity = 0;
  for (const HostView& view : views) {
    if (!view.schedulable()) {
      continue;
    }
    slack += std::min(view.slack_millicpu, view.capacity_millicpu);
    capacity += view.capacity_millicpu;
  }
  last_slack_permille_ = frac_permille(slack, capacity);

  if (last_slack_permille_ < config_.add_below_permille) {
    ++low_rounds_;
    high_rounds_ = 0;
  } else if (last_slack_permille_ > config_.drain_above_permille) {
    ++high_rounds_;
    low_rounds_ = 0;
  } else {
    low_rounds_ = 0;
    high_rounds_ = 0;
  }

  // Starved for band_rounds: grow. Cancelling an open drain counts as the
  // grow step (the victim rejoins instantly, no machine boot needed).
  if (low_rounds_ >= config_.band_rounds && now >= cooldown_until_) {
    low_rounds_ = 0;
    if (draining_ >= 0) {
      ARV_LOG(kInfo, "ca", "slack collapsed: cancelling drain of h%d",
              draining_);
      cluster_.cordon_host(draining_, false);
      draining_ = -1;
      ++drains_cancelled_;
      cooldown_until_ = now + config_.cooldown;
      return;
    }
    int parked = -1;
    for (int i = 0; i < cluster_.host_count(); ++i) {
      if (cluster_.host_up(i) && cluster_.host_cordoned(i)) {
        parked = i;
        break;
      }
    }
    if (parked < 0) {
      ++deferred_;  // fleet is at its physical maximum
      return;
    }
    ARV_LOG(kInfo, "ca", "slack %lld‰ < %lld‰: adding host h%d",
            static_cast<long long>(last_slack_permille_),
            static_cast<long long>(config_.add_below_permille), parked);
    cluster_.cordon_host(parked, false);
    ++hosts_added_;
    cooldown_until_ = now + config_.cooldown;
    return;
  }

  // Idle for band_rounds: shrink — cordon the cheapest victim and start
  // walking its pods off through the migration path.
  if (high_rounds_ >= config_.band_rounds && now >= cooldown_until_ &&
      draining_ < 0 && cluster_.active_hosts() > config_.min_hosts) {
    high_rounds_ = 0;
    int victim = -1;
    int fewest = std::numeric_limits<int>::max();
    for (const HostView& view : views) {
      // <= prefers the highest index among ties: late machines leave first,
      // and the control-plane host (h0) leaves last.
      if (view.schedulable() && view.pods <= fewest) {
        fewest = view.pods;
        victim = view.index;
      }
    }
    if (victim < 0) {
      return;
    }
    ARV_LOG(kInfo, "ca", "slack %lld‰ > %lld‰: draining host h%d (%d pods)",
            static_cast<long long>(last_slack_permille_),
            static_cast<long long>(config_.drain_above_permille), victim,
            fewest);
    cluster_.cordon_host(victim, true);
    draining_ = victim;
  }
}

}  // namespace arv::cluster
