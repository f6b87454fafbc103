// Failure recovery: the control loops that pick the fleet back up after
// faults.h knocks it over.
//
//   * FailureDetector — a phi-accrual-style detector reduced to its
//     deterministic core: one observation round per `period`; a host that is
//     down for `miss_threshold` consecutive rounds is *declared* dead, and
//     from then until it comes back every failed pod stranded on it is
//     failed over to the best up host the "effective" placement strategy
//     will accept (retried each round while no host fits). Waiting M rounds instead of
//     reacting instantly is what separates a crash from a blip — a host
//     that reboots inside the window keeps its pods for the cheaper
//     restart-in-place path.
//
//   * RestartManager — the kubelet side: failed pods whose host is up are
//     restarted in place after a capped exponential backoff
//     (CrashLoopBackOff), with the backoff counter reset once a pod stays
//     up 10 s (`kResetAfter` in recovery.cpp). It also turns OOM kills
//     into crashes: a running pod whose cgroup was OOM-killed by the
//     memory manager is marked failed and enters the same backoff loop.
//
// Both components are counter-driven and consume no randomness beyond what
// the placement strategy draws on score ties, so recovery preserves the
// cluster's byte-identical-trace determinism contract. See docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/sim/engine.h"

namespace arv::cluster {

struct DetectorConfig {
  /// Observation-round cadence (one "heartbeat" per round).
  SimDuration period = 100 * units::msec;
  /// Consecutive missed rounds before a host is declared dead.
  int miss_threshold = 3;
};

class FailureDetector : public sim::TickComponent {
 public:
  FailureDetector(Cluster& cluster, DetectorConfig config = {});

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.failure_detector"; }
  SimDuration tick_period() const override { return config_.period; }

  /// Hosts currently declared dead (down >= miss_threshold rounds).
  int declared_dead() const;
  bool is_declared_dead(int host_index) const {
    return track_.at(static_cast<std::size_t>(host_index)).declared;
  }

  std::uint64_t declarations() const { return declarations_; }
  /// Failovers this detector initiated (== the cluster counter's delta when
  /// nothing else calls failover_pod).
  std::uint64_t failovers_initiated() const { return failovers_initiated_; }
  /// Pods that were due for failover but had no feasible target that round.
  std::uint64_t deferred() const { return deferred_; }

 private:
  struct HostTrack {
    int missed = 0;
    bool declared = false;
  };

  Cluster& cluster_;
  DetectorConfig config_;
  std::vector<HostTrack> track_;
  std::uint64_t declarations_ = 0;
  std::uint64_t failovers_initiated_ = 0;
  std::uint64_t deferred_ = 0;
};

struct RestartConfig {
  /// Scan cadence; also the resolution of the backoff delays.
  SimDuration period = 50 * units::msec;
  /// Backoff after the Nth consecutive crash: base * 2^(N-1), capped.
  SimDuration backoff_base = 100 * units::msec;
  SimDuration backoff_cap = 5 * units::sec;
};

class RestartManager : public sim::TickComponent {
 public:
  RestartManager(Cluster& cluster, RestartConfig config = {});

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.restart_manager"; }
  SimDuration tick_period() const override { return config_.period; }

  std::uint64_t restarts_issued() const { return restarts_issued_; }
  /// Running pods whose cgroup the memory manager OOM-killed, converted to
  /// pod crashes by this manager.
  std::uint64_t oom_crashes() const { return oom_crashes_; }

  /// Current consecutive-crash count for a pod (0 = not in a crash loop).
  int crash_streak(int pod_id) const;
  /// The backoff delay the Nth consecutive crash earns.
  SimDuration backoff_for(int streak) const;

 private:
  struct PodTrack {
    int streak = 0;          ///< consecutive crashes without a stable run
    SimTime next_attempt = -1;  ///< -1 = no restart scheduled
  };

  PodTrack& track(int pod_id);

  Cluster& cluster_;
  RestartConfig config_;
  std::vector<PodTrack> track_;
  std::uint64_t restarts_issued_ = 0;
  std::uint64_t oom_crashes_ = 0;
};

}  // namespace arv::cluster
