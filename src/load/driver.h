// OpenLoopDriver — replays a compiled trace into the fleet, open-loop.
//
// A cluster tick component that injects each tenant's arrival schedule
// through that tenant's RequestRouter. Open-loop means arrivals *never* wait
// on completions: a melting fleet keeps receiving the full schedule and the
// damage shows up as drops and queue growth, exactly how a saturated service
// experiences the internet (closed-loop generators famously hide this —
// coordinated omission).
//
// The driver runs in the cluster's serial component phase (the same
// `!in_host_phase_` ordering pin every mutator relies on), reads the slot
// table compiled ahead of time, and spreads each slot's integer count across
// the slot's ticks exactly (sum of per-tick shares == the slot count). Costs
// are drawn per request from a per-tenant rng stream at injection time —
// deterministic, because injection order is fixed by (tenant registration
// order, tick). Traces are therefore byte-identical run to run.
//
// Fast path: per tick the driver fills one pooled cost buffer per tenant and
// hands it to RequestRouter::inject_batch, which routes each request in turn
// with no per-request allocation. The driver times itself (wall clock) so
// benchmarks can report generator overhead against the step loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/router.h"
#include "src/cluster/telemetry.h"
#include "src/load/trace_spec.h"
#include "src/sim/engine.h"

namespace arv::load {

struct DriverConfig {
  /// Replay the cycle forever (true) or go quiet after one pass (false).
  bool repeat = true;
};

class OpenLoopDriver : public sim::TickComponent {
 public:
  OpenLoopDriver(cluster::Cluster& cluster, CompiledTrace trace,
                 DriverConfig config = {});

  /// Bind one tenant's schedule to the router that fronts that tenant's
  /// replicas. The trace must contain the tenant; a tenant may be bound
  /// once. Unbound tenants in the trace are simply not replayed.
  void bind(const std::string& tenant, cluster::RequestRouter& router);

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.load"; }
  SimDuration tick_period() const override { return 0; }  // every tick

  // --- telemetry ------------------------------------------------------------
  std::uint64_t injected() const;  ///< all tenants
  std::uint64_t injected(const std::string& tenant) const;
  /// Completed replay cycles ("days").
  std::uint64_t cycles() const { return cycles_; }
  /// Wall-clock microseconds of generator bookkeeping — cursor math, exact
  /// slot spreading, cost sampling, batch fill. The inject_batch call itself
  /// is excluded: routing and service are the *workload being simulated*,
  /// not driver overhead, and they happen identically whatever generates the
  /// arrivals. For the bench's driver-vs-step accounting. Not traced (wall
  /// time is machine-dependent; it must never enter the trace contract).
  std::int64_t wall_us() const { return wall_ns_ / 1000; }

  const CompiledTrace& trace() const { return trace_; }

 private:
  struct Binding {
    const TenantSchedule* schedule = nullptr;
    cluster::RequestRouter* router = nullptr;
    Rng cost_rng;
    /// Bounded-Pareto inverse CDF precomputed at kCostQuantiles midpoints:
    /// a per-request cost draw is one rng call and one table lookup instead
    /// of two det_pow evaluations — the difference between the generator
    /// costing ~50% and <10% of step wall-clock at 1M+ requests/day.
    std::vector<CpuTime> cost_table;
    std::uint64_t injected = 0;
  };
  static constexpr std::size_t kCostQuantiles = 1024;

  cluster::Cluster& cluster_;
  CompiledTrace trace_;
  DriverConfig config_;
  std::vector<Binding> bindings_;  ///< injection order = bind order
  /// Ticks dispatched so far — the schedule cursor. Counting ticks (rather
  /// than anchoring on SimTime) keeps the slot math exact whatever time the
  /// driver was registered at.
  std::uint64_t tick_count_ = 0;
  std::uint64_t cycles_ = 0;
  /// Nanosecond accumulator: per-tick bookkeeping is often sub-microsecond,
  /// so accumulating truncated microseconds would undercount to ~zero.
  std::int64_t wall_ns_ = 0;
  /// Pooled per-tick cost batch (capacity persists across ticks, so steady
  /// state injects with zero allocation).
  std::vector<CpuTime> cost_batch_;
  cluster::Telemetry telemetry_;  ///< load.* trace series
};

}  // namespace arv::load
