// FleetView — one shared cluster-state snapshot (ant-ray's ViewBuilder /
// ResourceAssignmentView shape, SNIPPETS.md Snippet 3).
//
// Before this object existed, every cluster component — placement, the
// rebalancer, the failure detector, the router, and all three autoscalers —
// re-walked host_views() and re-derived its own notion of fleet state.
// FleetView replaces those walks with one structure-of-arrays snapshot,
// assembled in the cluster's serial phase:
//
//   hosts   the per-host effective view (capacity, declared ledger, observed
//           slack and free memory, up/cordon state) — the same HostView rows
//           the arena always carried;
//   pods    one flattened row per pod ever created: id, current host,
//           service, declared requests, committed bytes, and — when a
//           ProfileStore is attached — usage percentiles and burst shape;
//   CSR     host_pod_offsets/host_pod_ids, pods grouped by host in id order,
//           so per-host resident scans are O(residents) not O(pods).
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

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/placement.h"
#include "src/container/k8s.h"
#include "src/util/types.h"

namespace arv::cluster {

class ProfileStore;

/// One flattened pod row. Percentile/burst fields are zero (samples == 0)
/// until an attached ProfileStore has watched the pod long enough.
struct PodRow {
  int id = -1;
  int host = -1;     ///< current (or in-flight target) host; -1 once stopped
  int service = -1;  ///< index into FleetView::services
  // --- declared -------------------------------------------------------------
  std::int64_t request_millicpu = 0;
  Bytes request_memory = 0;
  // --- observed -------------------------------------------------------------
  Bytes committed = 0;  ///< bytes committed by the pod's cgroup right now
  std::int64_t cpu_p50_millicpu = 0;
  std::int64_t cpu_p95_millicpu = 0;
  Bytes mem_p50 = 0;
  Bytes mem_p95 = 0;
  /// Burstiness: cpu p95 / p50 in per-mille (1000 = flat, 3000 = spiky).
  std::int64_t burst_permille = 0;
  int samples = 0;  ///< profile window fill; 0 = unprofiled
  // --- state ----------------------------------------------------------------
  bool running = false;
  bool in_flight = false;  ///< mid-migration toward `host`
  bool failed = false;     ///< crashed, awaiting restart or failover
  SimTime placed_at = 0;
};

/// The snapshot object. Cluster::fleet_view() returns the live one; consumers
/// that place several pods in one round copy it and claim() each landing so
/// later decisions in the round see post-landing headroom.
struct FleetView {
  SimTime at = 0;
  std::vector<HostView> hosts;
  std::vector<PodRow> pods;  ///< indexed by pod id (rows for stopped pods stay)
  std::vector<std::string> services;  ///< interned service names
  // CSR: pods grouped by host. host_pod_ids[host_pod_offsets[h] ..
  // host_pod_offsets[h+1]) are the ids (ascending) of pods on host h
  // (running, in flight, or failed-in-place — anything holding a ledger slot).
  std::vector<int> host_pod_offsets;
  std::vector<int> host_pod_ids;
  /// Attached profile store (may be null). Strategies use it for pairwise
  /// correlation queries the flattened rows cannot carry.
  const ProfileStore* profiles = nullptr;

  int host_count() const { return static_cast<int>(hosts.size()); }
  int pod_count() const { return static_cast<int>(pods.size()); }
  const std::string& service_name(int index) const {
    static const std::string kUnknown = "?";
    return index >= 0 && index < static_cast<int>(services.size())
               ? services[static_cast<std::size_t>(index)]
               : kUnknown;
  }

  /// Charge a pod that just landed (or will land) on `host` against this
  /// *working copy*: ledger, observed slack/free-memory, and the pod count —
  /// plus a synthetic pod row so profile-aware scoring sees the new resident.
  /// The shared claim the FailureDetector and autoscalers used to hand-roll.
  void claim(int host, const PodSpec& spec);

  /// Deduct only the *observed* axes (slack, free memory) — for pods whose
  /// ledger slot is already counted (in-flight migrations) but whose landing
  /// has not burned a cycle yet.
  void reserve(int host, const container::K8sResources& resources);

  /// Rebuild the CSR index from the pod rows (after edits to `pods`).
  void rebuild_pod_index();

  /// Intern a service name, returning its index.
  int intern_service(const std::string& name);

  // --- renders (the /sys/arv/fleet/ file bodies) ----------------------------
  std::string render_hosts() const;
  std::string render_pods() const;

  /// Test/bench constructor: wrap hand-built host views (no pods, no
  /// profiles) so strategies can be driven without a Cluster.
  static FleetView from_hosts(std::vector<HostView> host_views);
};

}  // namespace arv::cluster
