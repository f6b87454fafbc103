// Placement strategies: which host should run the next pod?
//
// Cluster managers (Mesos/YARN/Kubernetes) place containers by *declared*
// requests and limits — exactly the static signal the paper's Algorithms 1/2
// show diverges from what a container can actually use. ARC-V
// (arXiv:2505.02964) and C-Balancer (arXiv:2009.08912) argue placement should
// instead consume the observed effective capacity. Three strategies cover
// both ends of that argument, selected per placement call:
//
//   "requests"   kube-scheduler-style bin-packing on K8sResources requests —
//                the baseline every real cluster runs today. Feasibility and
//                scoring never look at what hosts are actually doing.
//   "effective"  scores hosts by observed slack CPU and free-memory headroom
//                (the signals the per-host Ns_Monitor machinery maintains),
//                so an overcommitted-but-idle host still accepts pods and a
//                saturated one does not.
//   "profile"    C-Balancer-style: scores on *profiled* p95 usage instead of
//                instantaneous slack, and anti-colocates pods whose services'
//                usage series are positively correlated (fleet_view.h,
//                profile.h). Falls back to request-sized estimates for
//                unprofiled pods, so it degrades to "effective"-like behavior
//                on a cold fleet.
//
// Strategies decide from one shared FleetView snapshot (fleet_view.h) rather
// than a bare host array, so a strategy may consult the live pods (who
// already lives where) and their profiles as well as per-host headroom.
// Names are parsed only where they enter (ClusterScheduler::place/place_all,
// the FleetScenario harness); HPA, the cluster autoscaler and the failure
// detector call select_host(Strategy::kEffective, ...) directly.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/container/k8s.h"
#include "src/util/rng.h"
#include "src/util/types.h"

namespace arv::cluster {

/// How the kubelet mapping translates the pod's CPU *limit* into cgroup
/// knobs. "CPU-Limits kill Performance" (PAPERS.md) argues CFS quota is the
/// wrong primitive: shares already guarantee the weighted fair split under
/// contention, and a hard quota only converts idle cycles into throttle
/// stalls. kBurstable keeps the shares weight but never sets cfs_quota, so a
/// pod may soak up slack past its limit; kQuotaCapped is today's default.
enum class CpuMode {
  kQuotaCapped,  ///< limit_millicpu -> cfs_quota (kubelet default)
  kBurstable,    ///< shares only, quota unlimited (throttle-free)
};

/// A pod to place: a name, the Kubernetes resource spec, the view toggle.
struct PodSpec {
  std::string name;  ///< empty => the cluster assigns "pod-<N>"
  container::K8sResources resources;
  /// Create the adaptive resource view inside the pod's container.
  bool enable_view = true;
  /// CPU-limit enforcement mode; survives migration/failover re-landings.
  CpuMode cpu_mode = CpuMode::kQuotaCapped;
  /// Service the pod belongs to: replicas of one service share it, and the
  /// profile machinery aggregates/correlates per service. Empty => the pod
  /// name (every pod its own singleton service). Last so positional
  /// aggregate initializers keep working.
  std::string service;
  /// Adaptation policy for the pod's resource view ("paper" or "static",
  /// core::kPolicyNames); empty keeps the container default. Applied at
  /// every landing, so it survives migration and failover — the knob the
  /// workload benchmarks flip to compare view policies per fleet.
  std::string view_policy;

  /// The service the pod files under: `service`, or the name when unset.
  const std::string& service_name() const {
    return service.empty() ? name : service;
  }
};

/// What a strategy sees about one host at decision time. Declared numbers
/// come from the cluster's own bookkeeping of placed pods; observed numbers
/// from the host's snapshot (scheduler slack, free memory).
struct HostView {
  int index = 0;
  // --- capacity ------------------------------------------------------------
  std::int64_t capacity_millicpu = 0;  ///< online CPUs * 1000
  Bytes capacity_memory = 0;           ///< physical RAM
  // --- declared (sum of requests over pods currently on the host) ---------
  std::int64_t requested_millicpu = 0;
  Bytes requested_memory = 0;
  int pods = 0;
  // --- observed ------------------------------------------------------------
  /// Idle CPU over the last observation window, in milli-CPUs (1000 = one
  /// whole core sat unused). A fresh, never-observed host reports full idle.
  std::int64_t slack_millicpu = 0;
  Bytes free_memory = 0;
  /// False while the host is crashed (fault injection). Down hosts are
  /// infeasible for every strategy, whatever their other signals say.
  bool up = true;
  /// True while the cluster autoscaler holds the host out of service
  /// (draining, or parked as spare capacity). Cordoned hosts still tick and
  /// heartbeat — they are administratively unschedulable, not dead.
  bool cordoned = false;

  /// Strategies place only on hosts that are both alive and uncordoned.
  bool schedulable() const { return up && !cordoned; }

  bool operator==(const HostView&) const = default;
};

struct FleetView;

/// The three placement strategies (see the file comment).
enum class Strategy {
  kRequests,
  kEffective,
  kProfile,
};

/// The strategy named "requests", "effective" or "profile"; nullopt for any
/// other name.
std::optional<Strategy> parse_strategy(std::string_view name);

/// Choose a host for `pod` under `strategy`, or -1 when no host fits.
/// `fleet` is the shared cluster snapshot (fleet.hosts for headroom,
/// fleet.pods for residents). `rng` breaks score ties (kube-scheduler also
/// picks randomly among equal-score hosts); randomness is consumed only for
/// ties so placement stays deterministic under a fixed seed.
int select_host(Strategy strategy, const PodSpec& pod, const FleetView& fleet,
                Rng& rng);

/// Pick uniformly among the feasible hosts with the highest score (ties are
/// what kube-scheduler randomizes). `scores` uses < 0 for infeasible hosts.
/// Returns -1 when every host is infeasible. Shared by the three strategies.
int pick_best(const std::vector<std::int64_t>& scores, Rng& rng);

/// part/whole in per-mille, clamped to [0, 1000]. Widens through 128-bit so
/// byte-denominated inputs at Pi/Ei scale cannot overflow before the divide
/// (int64 `part * 1000` wraps past ~9.2 PB). Shared by placement scoring and
/// every cluster component that bands on slack/headroom fractions.
std::int64_t frac_permille(std::int64_t part, std::int64_t whole);

}  // namespace arv::cluster
