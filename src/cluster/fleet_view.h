// FleetView — one shared cluster-state snapshot (ant-ray's ViewBuilder /
// ResourceAssignmentView shape, SNIPPETS.md Snippet 3).
//
// Before this object existed, every cluster component — placement, the
// rebalancer, the failure detector and the autoscalers — re-walked
// host_views() and re-derived its own notion of fleet state. FleetView
// replaces those walks with one snapshot of per-host rows, assembled in the
// cluster's serial phase: each host's effective view (capacity, declared
// ledger, observed slack and free memory, up/cordon state).
//
// Pod facts are not copied: the cluster, the ProfileStore and host memory
// own them, and a copy goes stale (it would keep a profile the store has
// since pruned). The snapshot carries read-only references to the cluster's
// live pods and the attached ProfileStore instead, so a strategy that asks
// who lives where, at what profiled load, reads the owners directly.
//
// The cluster keeps one snapshot and refreshes it in place, like the paper's
// view: a function of current state, recomputed with no history. Rows of
// hosts that are provably unchanged (frozen by the quiescence skip, no
// mutation since the last refresh) are left as they are; only stale rows
// are re-observed.
//
// All assembly and all reads happen in the cluster's serial phases, so the
// view preserves the byte-identical-trace contract.
#pragma once

#include <string>
#include <vector>

#include "src/cluster/placement.h"
#include "src/container/k8s.h"
#include "src/util/types.h"

namespace arv::cluster {

struct Pod;
class ProfileStore;

/// The snapshot object. Cluster::fleet_view() returns the live one; consumers
/// that place several pods in one round copy it and claim() each landing so
/// later decisions in the round see post-landing headroom.
struct FleetView {
  SimTime at = 0;
  std::vector<HostView> hosts;
  /// The cluster's pods, live and indexed by id (stopped pods stay); null in
  /// from_hosts views. Residents of a host are the pods whose `host` is it.
  const std::vector<Pod>* pods = nullptr;
  /// Attached profile store (may be null): per-pod percentiles and the
  /// pairwise service correlation the "profile" strategy scores on.
  const ProfileStore* profiles = nullptr;

  int host_count() const { return static_cast<int>(hosts.size()); }

  /// Charge a pod that just landed (or will land) on `host` against this
  /// *working copy*: ledger, observed slack/free-memory, and the pod count.
  /// The shared claim the FailureDetector and autoscalers used to hand-roll.
  void claim(int host, const container::K8sResources& resources);

  /// Deduct only the *observed* axes (slack, free memory) — for pods whose
  /// ledger slot is already counted (in-flight migrations) but whose landing
  /// has not burned a cycle yet.
  void reserve(int host, const container::K8sResources& resources);

  /// The /sys/arv/fleet/hosts file body.
  std::string render_hosts() const;

  /// Test/bench constructor: wrap hand-built host views (no pods, no
  /// profiles) so strategies can be driven without a Cluster.
  static FleetView from_hosts(std::vector<HostView> host_views);
};

}  // namespace arv::cluster
