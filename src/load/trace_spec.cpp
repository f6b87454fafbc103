#include "src/load/trace_spec.h"

#include <algorithm>

#include "src/util/assert.h"

namespace arv::load {
namespace det {

std::int64_t sin_permille(std::int64_t phase) {
  phase %= 2000;
  if (phase < 0) {
    phase += 2000;
  }
  const bool negative = phase >= 1000;
  const std::int64_t x = negative ? phase - 1000 : phase;  // [0, 1000]
  // Bhaskara I in permille of the half period: u = x(1000-x) peaks at
  // 250000, and sin = 4000u / (1250000 - u) hits exactly 1000 there.
  const std::int64_t u = x * (1000 - x);
  const std::int64_t value = 4000 * u / (1250000 - u);
  return negative ? -value : value;
}

double det_exp(double x) {
  // Range-reduce into |r| <= 0.5 with x = k*ln2 + r, then Taylor-sum r and
  // scale by 2^k. ln2 is a literal, the loop is value-terminated on exactly
  // representable comparisons, and every op is IEEE +,*,/ — bit-stable.
  constexpr double kLn2 = 0.6931471805599453;
  ARV_ASSERT_MSG(x > -700.0 && x < 700.0, "det_exp out of range");
  const double kd = x / kLn2;
  // Round-to-nearest without libm: shift through int64 (|k| < 1011).
  const auto k = static_cast<int>(kd >= 0 ? kd + 0.5 : kd - 0.5);
  const double r = x - static_cast<double>(k) * kLn2;
  double term = 1.0;
  double sum = 1.0;
  for (int n = 1; n <= 30; ++n) {
    term = term * r / static_cast<double>(n);
    const double next = sum + term;
    if (next == sum) {
      break;
    }
    sum = next;
  }
  // 2^k by repeated squaring of exact powers of two.
  double scale = 1.0;
  double base = k >= 0 ? 2.0 : 0.5;
  for (int e = k >= 0 ? k : -k; e > 0; e >>= 1) {
    if ((e & 1) != 0) {
      scale *= base;
    }
    base *= base;
  }
  return sum * scale;
}

double det_ln(double x) {
  ARV_ASSERT_MSG(x > 0.0, "det_ln requires x > 0");
  constexpr double kLn2 = 0.6931471805599453;
  // Reduce to m in [sqrt(1/2), sqrt(2)) with x = m * 2^e — powers of two
  // are exact, so the reduction introduces no rounding.
  int e = 0;
  double m = x;
  while (m >= 1.4142135623730951) {
    m *= 0.5;
    ++e;
  }
  while (m < 0.7071067811865476) {
    m *= 2.0;
    --e;
  }
  // ln(m) = 2 atanh(t), t = (m-1)/(m+1), |t| < 0.172 so the odd series
  // converges in a handful of terms.
  const double t = (m - 1.0) / (m + 1.0);
  const double t2 = t * t;
  double term = t;
  double sum = t;
  for (int n = 3; n <= 41; n += 2) {
    term *= t2;
    const double next = sum + term / static_cast<double>(n);
    if (next == sum) {
      break;
    }
    sum = next;
  }
  return 2.0 * sum + static_cast<double>(e) * kLn2;
}

double det_pow(double x, double p) { return det_exp(p * det_ln(x)); }

std::uint64_t poisson(Rng& rng, double lambda) {
  ARV_ASSERT(lambda >= 0.0);
  // Knuth inversion underflows for large lambda, so draw in chunks of at
  // most 8 (Poisson is additive over independent chunks).
  std::uint64_t count = 0;
  while (lambda > 0.0) {
    const double chunk = lambda > 8.0 ? 8.0 : lambda;
    lambda -= chunk;
    const double limit = det_exp(-chunk);
    double p = 1.0;
    for (;;) {
      p *= rng.uniform();
      if (p <= limit) {
        break;
      }
      ++count;
    }
  }
  return count;
}

std::int64_t bounded_pareto_quantile(double u, std::int64_t lo,
                                     std::int64_t hi, double alpha) {
  ARV_ASSERT(lo > 0 && hi >= lo);
  if (hi == lo) {
    return lo;
  }
  if (alpha <= 0.0) {
    return (lo + hi) / 2;
  }
  const double l = static_cast<double>(lo);
  const double h = static_cast<double>(hi);
  // Inverse CDF of the bounded Pareto: x = (-(u*h^a - u*l^a - h^a) /
  // (h^a * l^a))^(-1/a) — heavy tail below hi, mass concentrated near lo.
  const double la = det_pow(l, alpha);
  const double ha = det_pow(h, alpha);
  const double x =
      det_pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  const auto v = static_cast<std::int64_t>(x);
  return std::clamp(v, lo, hi);
}

}  // namespace det

SimDuration CompiledTrace::duration() const {
  if (tenants.empty()) {
    return 0;
  }
  return slot * static_cast<SimDuration>(tenants.front().arrivals.size());
}

std::uint64_t CompiledTrace::total_arrivals() const {
  std::uint64_t total = 0;
  for (const TenantSchedule& t : tenants) {
    total += t.total;
  }
  return total;
}

const TenantSchedule* CompiledTrace::find(const std::string& tenant) const {
  for (const TenantSchedule& t : tenants) {
    if (t.tenant == tenant) {
      return &t;
    }
  }
  return nullptr;
}

namespace {

/// The deterministic rate profile at slot s: diurnal sinusoid times the
/// flash-crowd envelope, in arrivals/sec (all tenants combined).
double profile_rps(const TraceSpec& spec, std::size_t s, std::size_t slots) {
  // Diurnal: permille phase across the cycle, `diurnal_periods` periods.
  const std::int64_t phase =
      static_cast<std::int64_t>(s) * 2000 * spec.diurnal_periods /
      static_cast<std::int64_t>(slots);
  double rate =
      spec.mean_rps *
      (1.0 + spec.diurnal_amplitude *
                 static_cast<double>(det::sin_permille(phase)) / 1000.0);
  // Flash crowds: piecewise-linear ramp/hold/decay multiplier on top.
  const SimTime at = static_cast<SimTime>(s) * spec.slot;
  for (const FlashCrowd& crowd : spec.flash_crowds) {
    const SimTime t = at - crowd.start;
    if (t < 0 || t >= crowd.ramp + crowd.hold + crowd.decay) {
      continue;
    }
    double level = 1.0;
    if (t < crowd.ramp) {
      level = static_cast<double>(t) / static_cast<double>(crowd.ramp);
    } else if (t >= crowd.ramp + crowd.hold) {
      const SimTime into = t - crowd.ramp - crowd.hold;
      level = 1.0 - static_cast<double>(into) /
                        static_cast<double>(crowd.decay);
    }
    rate *= 1.0 + (crowd.magnitude - 1.0) * level;
  }
  return rate < 0.0 ? 0.0 : rate;
}

}  // namespace

CompiledTrace compile(const TraceSpec& spec) {
  ARV_ASSERT(spec.duration > 0 && spec.slot > 0);
  ARV_ASSERT_MSG(spec.duration % spec.slot == 0,
                 "slot must divide the cycle duration");
  ARV_ASSERT_MSG(!spec.tenants.empty(), "a trace needs at least one tenant");
  const auto slots = static_cast<std::size_t>(spec.duration / spec.slot);
  double weight_sum = 0.0;
  for (const TenantMix& t : spec.tenants) {
    ARV_ASSERT_MSG(t.weight > 0.0, "tenant weights must be positive");
    ARV_ASSERT(t.cost_min > 0 && t.cost_max >= t.cost_min);
    weight_sum += t.weight;
  }

  CompiledTrace trace;
  trace.slot = spec.slot;
  const double slot_sec =
      static_cast<double>(spec.slot) / static_cast<double>(units::sec);

  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantMix& mix = spec.tenants[i];
    TenantSchedule schedule;
    schedule.tenant = mix.name;
    schedule.cost_min = mix.cost_min;
    schedule.cost_max = mix.cost_max;
    schedule.cost_alpha = mix.cost_alpha;
    schedule.arrivals.resize(slots, 0);
    // A per-tenant stream keyed by seed + index: tenants are independent
    // Poisson thinnings of the shared profile.
    Rng rng(spec.seed + 0x9e3779b97f4a7c15ULL * (i + 1));
    const double share = mix.weight / weight_sum;
    double carry = 0.0;  // kDeterministic fractional remainder
    for (std::size_t s = 0; s < slots; ++s) {
      const double lambda = profile_rps(spec, s, slots) * share * slot_sec;
      std::uint64_t n = 0;
      if (spec.process == ArrivalProcess::kDeterministic) {
        carry += lambda;
        n = static_cast<std::uint64_t>(carry);
        carry -= static_cast<double>(n);
      } else {
        n = det::poisson(rng, lambda);
      }
      ARV_ASSERT_MSG(n <= 0xffffffffULL, "slot arrival count overflow");
      schedule.arrivals[s] = static_cast<std::uint32_t>(n);
      schedule.total += n;
    }
    trace.tenants.push_back(std::move(schedule));
  }
  return trace;
}

}  // namespace arv::load
