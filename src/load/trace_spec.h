// TraceSpec — a compact, seed-deterministic description of a day of demand.
//
// The workload engine (DESIGN.md §14) separates *what the users do* from
// *how the fleet reacts*: a TraceSpec declares the demand shape — a diurnal
// sinusoid, flash-crowd spikes, Poisson session arrivals, a bounded-Pareto
// per-request cost, and per-tenant mix weights — and compile() lowers it to
// an integer per-slot arrival schedule the OpenLoopDriver replays tick by
// tick. Compilation happens once, before time advances, so the per-tick fast
// path is pure table lookup.
//
// Everything here is bit-deterministic across platforms:
// the sinusoid is integer Bhaskara-I (no libm), the Poisson/Pareto samplers
// draw from the repo's own xoshiro Rng through series-based exp/ln built
// from IEEE-exact +,*,/ only, and the compiled schedule is integer counts.
// The same spec + seed therefore compiles to the same schedule everywhere —
// the property the golden compile test and the byte-identical-trace tests
// pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/types.h"

namespace arv::load {

// --- deterministic math (exposed for tests) ----------------------------------
namespace det {

/// Integer Bhaskara-I sine over a full period expressed in permille:
/// phase in [0, 2000) -> sin in [-1000, 1000]. Out-of-range phases wrap.
/// Max error vs true sine is ~0.2% — indistinguishable at schedule
/// granularity, and exactly reproducible on every platform (pure int64).
std::int64_t sin_permille(std::int64_t phase);

/// exp(x) by fixed-rule Taylor summation (IEEE +,*,/ only; no libm, so the
/// bits match across platforms). Accurate to ~1e-15 relative for |x| <= 16.
double det_exp(double x);

/// ln(x) for x > 0 via atanh series after power-of-two range reduction.
double det_ln(double x);

/// x^p for x > 0: det_exp(p * det_ln(x)).
double det_pow(double x, double p);

/// Poisson(lambda) by chunked Knuth inversion (sums Poisson(<=8) chunks, so
/// it never underflows); draws only uniform doubles from `rng`.
std::uint64_t poisson(Rng& rng, double lambda);

/// Bounded Pareto(alpha) on [lo, hi] — the heavy-tailed per-request cost —
/// as its inverse CDF at quantile u in [0, 1); alpha <= 0 degenerates to the
/// midpoint. The driver precomputes a cost lookup table from it, so the
/// injection fast path samples the table instead of paying det_pow per
/// request.
std::int64_t bounded_pareto_quantile(double u, std::int64_t lo,
                                     std::int64_t hi, double alpha);

}  // namespace det

// --- the spec ----------------------------------------------------------------

/// One flash crowd: demand ramps linearly to `magnitude` x the baseline,
/// holds, and decays back. Offsets are within the cycle.
struct FlashCrowd {
  SimTime start = 0;
  SimDuration ramp = 2 * units::sec;
  SimDuration hold = 5 * units::sec;
  SimDuration decay = 3 * units::sec;
  /// Peak multiplier applied to the diurnal baseline (2.0 = double demand).
  double magnitude = 2.0;
};

/// How session arrivals are drawn around the deterministic rate profile.
enum class ArrivalProcess {
  kDeterministic,  ///< exactly round(lambda) per slot — analytic baselines
  kPoisson,        ///< independent Poisson counts per slot
};

/// One tenant's share of the mix. Weights are relative; each tenant's slot
/// rate is `weight / sum(weights)` of the total profile (independent Poisson
/// thinning, so per-tenant streams are independent given the profile).
struct TenantMix {
  std::string name;
  double weight = 1.0;
  /// Per-request CPU cost: bounded Pareto on [cost_min, cost_max].
  CpuTime cost_min = 1 * units::msec;
  CpuTime cost_max = 50 * units::msec;
  double cost_alpha = 1.3;  ///< tail index; smaller = heavier tail
};

struct TraceSpec {
  /// One replay cycle — the engine's (possibly compressed) "day". The driver
  /// loops it, so a 60 s cycle replayed for 10 minutes is ten days.
  SimDuration duration = 60 * units::sec;
  /// Schedule resolution; must divide `duration` and be a multiple of the
  /// cluster tick (the driver spreads each slot's count across its ticks).
  SimDuration slot = 100 * units::msec;
  /// Cycle-average total arrival rate, all tenants combined.
  double mean_rps = 1000.0;
  /// Diurnal swing: rate = mean * (1 + amplitude * sin(...)) with
  /// `diurnal_periods` full periods per cycle. 0 flattens the day.
  double diurnal_amplitude = 0.5;
  int diurnal_periods = 1;
  std::vector<FlashCrowd> flash_crowds;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  std::uint64_t seed = 42;
  std::vector<TenantMix> tenants;
};

// --- the compiled schedule ---------------------------------------------------

/// One tenant's integer arrival schedule: arrivals[s] sessions during slot s.
struct TenantSchedule {
  std::string tenant;
  CpuTime cost_min = 0;
  CpuTime cost_max = 0;
  double cost_alpha = 1.0;
  std::vector<std::uint32_t> arrivals;
  std::uint64_t total = 0;  ///< sum of arrivals
};

/// A compiled trace: per-tenant per-slot integer arrival counts. This is the
/// only thing the driver consumes.
struct CompiledTrace {
  SimDuration slot = 0;
  std::vector<TenantSchedule> tenants;

  SimDuration duration() const;  ///< slot * slots-per-tenant
  std::uint64_t total_arrivals() const;
  const TenantSchedule* find(const std::string& tenant) const;
};

/// Lower a spec to its arrival schedule. Pure function of (spec, spec.seed):
/// the same spec compiles to the same schedule on every platform.
CompiledTrace compile(const TraceSpec& spec);

}  // namespace arv::load
