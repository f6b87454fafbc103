#include "src/cluster/scheduler.h"

#include <algorithm>

#include "src/util/assert.h"

namespace arv::cluster {

PlacementStrategy& ClusterScheduler::strategy(const std::string& name) {
  auto it = strategies_.find(name);
  if (it == strategies_.end()) {
    auto made = make_strategy(name);
    ARV_ASSERT_MSG(made != nullptr, "unknown placement strategy");
    it = strategies_.emplace(name, std::move(made)).first;
  }
  return *it->second;
}

int ClusterScheduler::place(const std::string& strategy_name, PodSpec spec,
                            WorkloadFactory factory) {
  PlacementStrategy& chosen = strategy(strategy_name);
  const int host =
      chosen.select(spec, cluster_.fleet_view(), cluster_.rng());
  if (host < 0) {
    ++unschedulable_;
    return -1;
  }
  return cluster_.create_pod(host, std::move(spec), std::move(factory));
}

std::vector<int> ClusterScheduler::place_all(const std::string& strategy_name,
                                             std::vector<PodSpec> specs) {
  PlacementStrategy& chosen = strategy(strategy_name);
  std::vector<std::size_t> order(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    order[i] = i;
  }
  // Stable: equal ranks keep submission order.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return chosen.queue_rank(specs[a]) <
                            chosen.queue_rank(specs[b]);
                   });
  std::vector<int> result(specs.size(), -1);
  for (const std::size_t slot : order) {
    result[slot] = place(strategy_name, std::move(specs[slot]));
  }
  return result;
}

}  // namespace arv::cluster
