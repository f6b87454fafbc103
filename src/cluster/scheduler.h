// ClusterScheduler — places pods on a Cluster through a named placement
// strategy (kube-scheduler analogue).
//
// The scheduler parses the strategy name and keeps the unschedulable tally;
// the declared-request ledger lives in the Cluster so the rebalancer and
// migrations keep it consistent.
#pragma once

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"

namespace arv::cluster {

class ClusterScheduler {
 public:
  explicit ClusterScheduler(Cluster& cluster) : cluster_(cluster) {}

  /// Place one pod with the named strategy ("requests", "effective" or
  /// "profile"; any other name is an assertion failure). Returns the pod id,
  /// or -1 when no host is feasible (the pod stays unscheduled — kube would
  /// park it in the pending queue; we count it and drop it).
  int place(const std::string& strategy, PodSpec spec,
            WorkloadFactory factory = {});

  /// Batch placement without workloads (placement studies). Under
  /// "requests" pods place in QoS-class order, BestEffort last, mirroring
  /// kube-scheduler's queue (stable, so submission order breaks ties); the
  /// other strategies place in submission order. Returns one pod id (or -1)
  /// per *submitted* pod, in submission order.
  std::vector<int> place_all(const std::string& strategy,
                             std::vector<PodSpec> specs);

  std::uint64_t unschedulable() const { return unschedulable_; }

 private:
  Cluster& cluster_;
  std::uint64_t unschedulable_ = 0;
};

}  // namespace arv::cluster
