// Rebalancer — C-Balancer-style corrective migration.
//
// Placement decides once; load changes afterwards. The rebalancer watches
// each host's slack between rounds and, when a host has shown (effectively)
// zero slack for K consecutive rounds while another host has observed
// headroom, migrates one container from the saturated host to the roomiest
// one. Victim selection is profile-driven when a ProfileStore is attached
// to the cluster: the saturated host evicts its hottest pod by *profiled*
// p95 CPU (burstiness breaks ties — the spikier pod is the likelier cause
// of the saturation), falling back to the per-round usage-delta signal when
// no profiles exist. Guard rails against thrashing:
//
//   * K consecutive saturated rounds before a host qualifies as a source
//     (a single busy round never triggers a move);
//   * per-host cooldown after a migration (source and target both sit out);
//   * per-pod minimum residency (a freshly-landed pod cannot bounce);
//   * at most one migration per round, and the migration itself costs a
//     freeze proportional to the pod's committed memory (Cluster's model),
//     so even a misjudged move is paid for, not free.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sim/engine.h"

namespace arv::cluster {

struct RebalanceConfig {
  /// Round length (how often host slack is judged).
  SimDuration period = 250 * units::msec;
  /// A host is a migration source after this many consecutive rounds with
  /// (next to) no slack — see kSlackEpsilonPermille in rebalancer.cpp.
  int saturated_rounds = 4;
  /// Post-migration quiet time for both the source and the target host.
  SimDuration cooldown = 2 * units::sec;
  /// A pod must have lived this long on its host before moving (again).
  SimDuration min_residency = 2 * units::sec;
};

class Rebalancer : public sim::TickComponent {
 public:
  Rebalancer(Cluster& cluster, RebalanceConfig config = {});

  // --- sim::TickComponent (dispatched by Cluster) ---------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.rebalancer"; }
  SimDuration tick_period() const override { return config_.period; }

  std::uint64_t migrations() const { return migrations_; }
  int saturated_rounds(int host) const {
    return track_.at(static_cast<std::size_t>(host)).saturated_rounds;
  }
  /// Pods with a live usage-delta baseline. Bounded by the running-pod
  /// count: baselines of stopped/migrated/crashed pods are pruned every
  /// round (and the profile-driven victim path keeps none at all).
  int tracked_pods() const { return static_cast<int>(pod_last_usage_.size()); }

 private:
  struct HostTrack {
    int saturated_rounds = 0;
    SimTime cooldown_until = 0;
    CpuTime last_total_slack = 0;
  };

  Cluster& cluster_;
  RebalanceConfig config_;
  std::vector<HostTrack> track_;
  std::map<int, CpuTime> pod_last_usage_;  ///< pod id -> cumulative CPU usage
  std::uint64_t migrations_ = 0;
};

}  // namespace arv::cluster
