#include "src/cluster/scheduler.h"

#include <algorithm>

#include "src/util/assert.h"

namespace arv::cluster {
namespace {

Strategy parse_or_die(const std::string& name) {
  const std::optional<Strategy> strategy = parse_strategy(name);
  ARV_ASSERT_MSG(strategy.has_value(), "unknown placement strategy");
  return *strategy;
}

/// kube-scheduler's queue order: Guaranteed, then Burstable, then BestEffort.
int qos_rank(const PodSpec& pod) {
  switch (container::qos_class(pod.resources)) {
    case container::QosClass::kGuaranteed:
      return 0;
    case container::QosClass::kBurstable:
      return 1;
    case container::QosClass::kBestEffort:
      return 2;
  }
  return 2;
}

}  // namespace

int ClusterScheduler::place(const std::string& strategy, PodSpec spec,
                            WorkloadFactory factory) {
  const int host = select_host(parse_or_die(strategy), spec,
                               cluster_.fleet_view(), cluster_.rng());
  if (host < 0) {
    ++unschedulable_;
    return -1;
  }
  return cluster_.create_pod(host, std::move(spec), std::move(factory));
}

std::vector<int> ClusterScheduler::place_all(const std::string& strategy,
                                             std::vector<PodSpec> specs) {
  std::vector<std::size_t> order(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    order[i] = i;
  }
  if (parse_or_die(strategy) == Strategy::kRequests) {
    // Stable: equal ranks keep submission order.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return qos_rank(specs[a]) < qos_rank(specs[b]);
                     });
  }
  std::vector<int> result(specs.size(), -1);
  for (const std::size_t slot : order) {
    result[slot] = place(strategy, std::move(specs[slot]));
  }
  return result;
}

}  // namespace arv::cluster
