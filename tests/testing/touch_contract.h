// Shared cluster check: run a fleet step by step and verify the touch
// contract (cluster.h) after every step — a host is on the awake list, once,
// exactly when its clock equals cluster time.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cluster/cluster.h"

namespace arv::testing {

/// Steps `cluster` for `duration`, checking the contract after each step.
/// Host clocks are read through pointers taken before the run, because the
/// host() accessor syncs (and so would wake) the host it returns. Call it
/// before the first step, where taking them syncs nothing.
inline ::testing::AssertionResult RunCheckingTouchContract(
    cluster::Cluster& cluster, SimDuration duration) {
  std::vector<const container::Host*> hosts;
  for (int i = 0; i < cluster.host_count(); ++i) {
    hosts.push_back(&cluster.host(i));
  }
  const SimTime end = cluster.now() + duration;
  while (cluster.now() < end) {
    cluster.step();
    const std::vector<int>& awake = cluster.awake_hosts();
    for (int i = 0; i < cluster.host_count(); ++i) {
      const auto listed = std::count(awake.begin(), awake.end(), i);
      const SimTime clock = hosts[static_cast<std::size_t>(i)]->now();
      if (listed != (clock == cluster.now() ? 1 : 0)) {
        return ::testing::AssertionFailure()
               << "host " << i << " is listed " << listed
               << " times on the awake list with its clock at " << clock
               << " us, cluster time " << cluster.now() << " us";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace arv::testing
