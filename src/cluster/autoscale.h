// Closed-loop autoscaling on effective views (ROADMAP: HPA + VPA + cluster
// autoscaler).
//
// Three tick components close the loop the paper's per-container adaptation
// opens. Each consumes the *observed* effective-capacity signals (HostView
// arena, per-container resource views, scheduler usage counters) rather than
// the declared K8sResources the kube stack scales on:
//
//   HorizontalAutoscaler  replica count per service — router-observed arrival
//                         rate vs per-replica effective capacity, with
//                         scale-up/scale-down stabilization windows and a
//                         max-surge bound (the kube HPA control shape, fed by
//                         honest signals).
//   VerticalRecommender   ARC-V-style per-pod limit rewriting: p50/p95 of
//                         observed usage over a sliding window drive live
//                         cgroup updates (cpu.shares, cfs_quota, memory
//                         soft/hard limits). Pods in CpuMode::kBurstable get
//                         shares only, never a quota — the throttle-free mode
//                         "CPU-Limits kill Performance" (PAPERS.md) argues
//                         for.
//   ClusterAutoscaler     fleet size — when fleet-wide effective slack
//                         crosses hysteresis bands, parked (cordoned) hosts
//                         are brought in or populated hosts are cordoned and
//                         drained through the existing migration path.
//
// All three are ordinary cluster components: they mutate only in the serial
// phases (the same ordering pin the FaultInjector and Rebalancer rely on),
// draw randomness only through placement tie-breaks, and therefore preserve
// the byte-identical-trace contract. Decision counters
// surface as cluster trace series (autoscale.replicas, autoscale.hosts,
// vpa.rewrites, …) and as /sys/arv/autoscale/ + /sys/arv/vpa/ control-plane
// files on a designated host's sysfs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/router.h"
#include "src/cluster/telemetry.h"
#include "src/server/server_runtime.h"
#include "src/sim/engine.h"

namespace arv::cluster {

// --- HorizontalAutoscaler -----------------------------------------------------

struct HpaConfig {
  /// Decision-round length.
  SimDuration period = 250 * units::msec;
  int min_replicas = 1;
  int max_replicas = 16;
  /// CPU cost of one request; must match the replicas' WebConfig.service_cpu
  /// (the HPA has no oracle — it converts arrivals to CPU demand with this).
  SimDuration request_cpu = 4 * units::msec;
  /// Replicas added in one decision round, at most (kube maxSurge).
  int max_surge = 4;
  /// Demand must exceed capacity continuously this long before scaling up
  /// (defeats single-round spikes).
  SimDuration up_stabilization = 500 * units::msec;
  /// Scale-down uses the *maximum* desired count recommended over this
  /// trailing window (kube's stabilizationWindowSeconds), so a brief lull
  /// never sheds replicas a recovering flash crowd still needs.
  SimDuration down_stabilization = 5 * units::sec;
};

/// Scales one service's replica set. New replicas are cloned from a PodSpec
/// template (cpu_mode included) with web_replica workloads and enrolled in
/// the router rotation; removed replicas are stopped but stay enrolled, so
/// their request history keeps counting in the fleet aggregate.
class HorizontalAutoscaler : public sim::TickComponent {
 public:
  HorizontalAutoscaler(Cluster& cluster, RequestRouter& router,
                       PodSpec replica_template, server::WebConfig web,
                       HpaConfig config = {});

  /// Take ownership of an already-placed replica (seed pods created before
  /// the autoscaler existed). The pod must already be in the router rotation.
  void adopt(int pod_id);

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.hpa"; }
  SimDuration tick_period() const override { return config_.period; }

  // --- telemetry ------------------------------------------------------------
  /// Managed replicas currently running or in flight (the controlled count).
  int replicas() const;
  /// The controller's last raw recommendation (pre-stabilization clamp).
  int desired() const { return last_desired_; }
  std::uint64_t scale_ups() const { return scale_ups_; }      ///< pods added
  std::uint64_t scale_downs() const { return scale_downs_; }  ///< pods stopped
  /// Decisions suppressed by a stabilization window.
  std::uint64_t held() const { return held_; }
  /// Scale-ups wanted but infeasible (no schedulable host); retried.
  std::uint64_t deferred() const { return deferred_; }

 private:
  int place_replica(FleetView& views);
  /// Mean effective capacity of the running replicas, in milli-CPUs; falls
  /// back to the template's declared CPU when no replica has a live view.
  std::int64_t effective_millicpu_per_replica() const;

  Cluster& cluster_;
  RequestRouter& router_;
  PodSpec template_;
  server::WebConfig web_;
  HpaConfig config_;
  std::vector<int> managed_;  ///< pod ids, in creation order
  std::uint64_t last_generated_ = 0;
  int last_desired_ = 0;
  /// Rolling (time, desired) recommendations inside down_stabilization.
  std::deque<std::pair<SimTime, int>> recent_desired_;
  SimTime above_since_ = -1;  ///< when desired first exceeded current; -1 = not
  int created_ = 0;           ///< replica name counter (never reused)
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  std::uint64_t held_ = 0;
  std::uint64_t deferred_ = 0;
  Telemetry telemetry_;  ///< /sys/arv/autoscale/<template name>/
};

// --- VerticalRecommender ------------------------------------------------------

struct VpaConfig {
  /// Sampling round length (one usage sample per pod per round).
  SimDuration period = 100 * units::msec;
  /// Sliding-window length, in rounds, over which percentiles are taken.
  int window_rounds = 20;
  /// Recommend (and possibly rewrite) every this many sampling rounds.
  int recommend_every = 5;
};

/// Rewrites every running pod's cgroup knobs from observed usage percentiles
/// (live `docker update`, no restart): cpu.shares from p50, cfs_quota from
/// p95 (+margin) for kQuotaCapped pods only, memory soft limit from p50 and
/// hard limit from p95 (+margin, floored above current committed bytes so a
/// rewrite can never insta-OOM the pod it is sizing).
class VerticalRecommender : public sim::TickComponent {
 public:
  explicit VerticalRecommender(Cluster& cluster, VpaConfig config = {});

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.vpa"; }
  SimDuration tick_period() const override { return config_.period; }

  // --- telemetry ------------------------------------------------------------
  /// Pods that had at least one knob rewritten, summed over rounds.
  std::uint64_t rewrites() const { return rewrites_; }
  std::uint64_t cpu_raised() const { return cpu_raised_; }
  std::uint64_t cpu_lowered() const { return cpu_lowered_; }
  std::uint64_t mem_raised() const { return mem_raised_; }
  std::uint64_t mem_lowered() const { return mem_lowered_; }
  /// Recommendations inside the min_change hysteresis band (not applied).
  std::uint64_t held() const { return held_; }

 private:
  struct PodTrack {
    int host = -1;  ///< baseline invalid after migration/failover/restart
    cgroup::CgroupId cgroup = 0;
    CpuTime last_usage = 0;
    std::deque<std::int64_t> cpu_millicpu;  ///< per-round usage samples
    std::deque<Bytes> mem_bytes;
    int rounds = 0;
    // Last applied values; 0 = never applied (compare against the floor).
    std::int64_t applied_shares = 0;
    std::int64_t applied_quota_millicpu = 0;
    Bytes applied_soft = 0;
    Bytes applied_hard = 0;
  };

  void recommend(Pod& pod, PodTrack& track);

  Cluster& cluster_;
  VpaConfig config_;
  std::map<int, PodTrack> track_;
  std::uint64_t rewrites_ = 0;
  std::uint64_t cpu_raised_ = 0;
  std::uint64_t cpu_lowered_ = 0;
  std::uint64_t mem_raised_ = 0;
  std::uint64_t mem_lowered_ = 0;
  std::uint64_t held_ = 0;
  Telemetry telemetry_;  ///< /sys/arv/vpa/
};

// --- ClusterAutoscaler --------------------------------------------------------

struct CaConfig {
  /// Decision-round length.
  SimDuration period = 500 * units::msec;
  /// Never drain below this many active hosts.
  int min_hosts = 1;
  /// Fleet-wide effective slack (per-mille of active capacity) below which
  /// a parked host is brought in…
  std::int64_t add_below_permille = 150;
  /// …and above which one is cordoned and drained. The dead band between
  /// the two is the hysteresis that stops add/drain flapping.
  std::int64_t drain_above_permille = 400;
  /// Consecutive out-of-band rounds required before acting.
  int band_rounds = 3;
  /// Quiet period after any add/drain completes.
  SimDuration cooldown = 2 * units::sec;
};

/// Sizes the fleet. Machines are never created or destroyed mid-run (the
/// lockstep fleet is fixed at t=0): "removing" a host cordons it and
/// migrates its pods away — once empty and parked it quiesces, so the idle
/// skip makes it nearly free — and "adding" one uncordons a parked machine.
/// Start hosts cordoned (Cluster::cordon_host) to give the autoscaler spare
/// capacity to grow into.
class ClusterAutoscaler : public sim::TickComponent {
 public:
  explicit ClusterAutoscaler(Cluster& cluster, CaConfig config = {});

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.ca"; }
  SimDuration tick_period() const override { return config_.period; }

  // --- telemetry ------------------------------------------------------------
  /// Host currently being drained, or -1.
  int draining() const { return draining_; }
  std::uint64_t hosts_added() const { return hosts_added_; }
  std::uint64_t hosts_drained() const { return hosts_drained_; }
  std::uint64_t drain_migrations() const { return drain_migrations_; }
  /// Drains abandoned because slack collapsed (or the victim crashed).
  std::uint64_t drains_cancelled() const { return drains_cancelled_; }
  /// Adds wanted with no parked host left, or drain migrations with no
  /// feasible target; retried.
  std::uint64_t deferred() const { return deferred_; }
  /// Last computed fleet slack fraction (per-mille of active capacity).
  std::int64_t slack_permille() const { return last_slack_permille_; }

 private:
  void continue_drain(SimTime now);

  Cluster& cluster_;
  CaConfig config_;
  int draining_ = -1;
  int low_rounds_ = 0;
  int high_rounds_ = 0;
  SimTime cooldown_until_ = 0;
  std::int64_t last_slack_permille_ = 0;
  std::uint64_t hosts_added_ = 0;
  std::uint64_t hosts_drained_ = 0;
  std::uint64_t drain_migrations_ = 0;
  std::uint64_t drains_cancelled_ = 0;
  std::uint64_t deferred_ = 0;
  Telemetry telemetry_;  ///< /sys/arv/autoscale/cluster/
};

}  // namespace arv::cluster
