// The benchmark's workloads and the result one episode of a workload yields.
//
// An episode builds the workload from its seed (set-up), runs a fixed span
// of simulated time (the timed phase), checks the simulated outputs, and
// reports. The simulated content of an episode depends only on the seed, so
// every episode of one seed must produce the same sim_digest, traced or not.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"

namespace arv::perfbench {

struct Metric {
  double value = 0;
  std::string unit;
  /// A simulated quantity (a model output that any change which only
  /// speeds up the simulator must reproduce exactly). Simulated metrics
  /// feed sim_digest; engine work counts and wall times do not.
  bool simulated = false;
};

struct EpisodeResult {
  double setup_s = 0;       ///< wall time from construction to first step
  double timed_wall_s = 0;  ///< wall time of the timed phase
  double sim_s = 0;         ///< simulated seconds covered by the timed phase
  /// Wall time of each kSegment of simulated time in the timed phase, in
  /// order. Every episode of one seed simulates the same segments, so a
  /// run can compare them episode by episode.
  std::vector<std::int64_t> segment_ns;
  /// sim_app_runtime_s, sim_goodput_rps, sim_p99_ms.
  std::map<std::string, Metric> outcome;
  /// Per-layer metrics. Counts are filled on every episode; wall-time
  /// metrics only when a tracer was attached.
  std::map<std::string, Metric> layers;
  std::uint64_t ops = 0;         ///< simulated requests or jobs + bench calls
  std::uint64_t ops_failed = 0;  ///< simulated failures + bench-call errors
  /// Benchmark-issued calls (sysfs reads/writes) that returned an error.
  std::uint64_t call_errors = 0;
  /// Violated output checks; empty when the episode is correct.
  std::vector<std::string> check_failures;
};

/// The simulated length of one timed segment (see EpisodeResult).
constexpr SimDuration kSegment = 10 * units::msec;

/// Times the timed phase segment by segment: call lap() after every step.
class SegmentClock {
 public:
  explicit SegmentClock(std::vector<std::int64_t>& out)
      : out_(out), start_(now_ns()), lap_(start_) {}
  void lap(SimTime now) {
    if (now % kSegment == 0) {
      const std::int64_t t = now_ns();
      out_.push_back(t - lap_);
      lap_ = t;
    }
  }
  double elapsed_s() const {
    return static_cast<double>(now_ns() - start_) / 1e9;
  }

 private:
  std::vector<std::int64_t>& out_;
  std::int64_t start_;
  std::int64_t lap_;
};

/// Adds one metric to a result map (unit and simulated flag included).
inline void put(std::map<std::string, Metric>& map, const std::string& name,
                double value, const std::string& unit, bool simulated) {
  map[name] = Metric{value, unit, simulated};
}

/// Records a failed check unless `ok`.
inline void check(EpisodeResult& result, bool ok, const std::string& what) {
  if (!ok) {
    result.check_failures.push_back(what);
  }
}

EpisodeResult run_host_colocation(std::uint64_t seed, Tracer* tracer);
EpisodeResult run_fleet_day(std::uint64_t seed, Tracer* tracer);
EpisodeResult run_fleet_sparse(std::uint64_t seed, Tracer* tracer);

}  // namespace arv::perfbench
