// ClusterScheduler — places pods on a Cluster through a named
// PlacementStrategy (kube-scheduler analogue).
//
// One instance caches the strategy objects it has made by name and keeps
// the unschedulable tally; the declared-request ledger lives in the Cluster
// so the rebalancer and migrations keep it consistent.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"

namespace arv::cluster {

class ClusterScheduler {
 public:
  explicit ClusterScheduler(Cluster& cluster) : cluster_(cluster) {}

  /// Place one pod with the named strategy. Returns the pod id, or -1 when
  /// no host is feasible (the pod stays unscheduled — kube would park it in
  /// the pending queue; we count it and drop it).
  int place(const std::string& strategy, PodSpec spec,
            WorkloadFactory factory = {});

  /// Batch placement without workloads (placement studies): pods place in
  /// the strategy's queue_rank order — "requests" ranks by QoS class,
  /// BestEffort last, mirroring kube-scheduler's queue. Returns one pod id
  /// (or -1) per *submitted* pod, in submission order.
  std::vector<int> place_all(const std::string& strategy,
                             std::vector<PodSpec> specs);

  std::uint64_t unschedulable() const { return unschedulable_; }

 private:
  PlacementStrategy& strategy(const std::string& name);

  Cluster& cluster_;
  std::map<std::string, std::unique_ptr<PlacementStrategy>> strategies_;
  std::uint64_t unschedulable_ = 0;
};

}  // namespace arv::cluster
