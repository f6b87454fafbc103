#include "src/load/trace_spec.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>

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

std::int64_t bounded_pareto(Rng& rng, std::int64_t lo, std::int64_t hi,
                            double alpha) {
  return bounded_pareto_quantile(rng.uniform(), lo, hi, alpha);
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

  // MMPP burst envelope is shared across tenants (a burst is a burst of
  // *users*), drawn once from its own rng stream so adding tenants never
  // shifts the burst pattern.
  std::vector<double> burst(slots, 1.0);
  if (spec.process == ArrivalProcess::kMmpp) {
    ARV_ASSERT(spec.burst_on_slots > 0.0 && spec.burst_off_slots > 0.0);
    Rng rng(spec.seed ^ 0x6d6d7070ULL);  // "mmpp"
    bool on = false;
    for (std::size_t s = 0; s < slots; ++s) {
      const double flip = on ? 1.0 / spec.burst_on_slots
                             : 1.0 / spec.burst_off_slots;
      if (rng.chance(flip)) {
        on = !on;
      }
      burst[s] = on ? spec.burst_multiplier : 1.0;
    }
  }

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
      const double lambda =
          profile_rps(spec, s, slots) * burst[s] * share * slot_sec;
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

void save_csv(const CompiledTrace& trace, std::ostream& out) {
  out << "# arv-trace v1 slot_us=" << trace.slot << "\n";
  out << "tenant,cost_min_us,cost_max_us,cost_alpha_milli,slots\n";
  for (const TenantSchedule& t : trace.tenants) {
    out << t.tenant << ',' << t.cost_min << ',' << t.cost_max << ','
        << static_cast<std::int64_t>(t.cost_alpha * 1000.0) << ','
        << t.arrivals.size() << "\n";
  }
  out << "tenant,slot,arrivals\n";
  for (const TenantSchedule& t : trace.tenants) {
    for (std::size_t s = 0; s < t.arrivals.size(); ++s) {
      if (t.arrivals[s] == 0) {
        continue;  // sparse: empty slots are implicit
      }
      out << t.tenant << ',' << s << ',' << t.arrivals[s] << "\n";
    }
  }
}

namespace {

/// Split a CSV row at commas; empty fields are kept.
std::vector<std::string_view> split_row(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t comma; (comma = line.find(',', start)) != line.npos;
       start = comma + 1) {
    fields.push_back(line.substr(start, comma - start));
  }
  fields.push_back(line.substr(start));
  return fields;
}

/// The whole field as a decimal integer of type T, or nullopt if it is
/// empty, carries anything else, or does not fit T (so a "-1" never wraps
/// into an unsigned T).
template <typename T>
std::optional<T> parse_int(std::string_view field) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<CompiledTrace> load_csv(std::istream& in) {
  CompiledTrace trace;
  std::string line;
  const std::string_view magic = "# arv-trace v1 slot_us=";
  if (!std::getline(in, line) || !line.starts_with(magic)) {
    return std::nullopt;
  }
  const auto slot =
      parse_int<SimDuration>(std::string_view(line).substr(magic.size()));
  if (!slot || *slot <= 0) {
    return std::nullopt;
  }
  trace.slot = *slot;
  // Tenant table, up to the arrival-row header.
  if (!std::getline(in, line) ||
      line != "tenant,cost_min_us,cost_max_us,cost_alpha_milli,slots") {
    return std::nullopt;
  }
  bool arrival_header = false;
  while (std::getline(in, line)) {
    if (line == "tenant,slot,arrivals") {
      arrival_header = true;
      break;
    }
    const std::vector<std::string_view> row = split_row(line);
    if (row.size() != 5 || row[0].empty() ||
        trace.find(std::string(row[0])) != nullptr) {
      return std::nullopt;
    }
    const auto cost_min = parse_int<CpuTime>(row[1]);
    const auto cost_max = parse_int<CpuTime>(row[2]);
    const auto alpha_milli = parse_int<std::int64_t>(row[3]);
    const auto slots = parse_int<std::size_t>(row[4]);
    // The cost bounds are what the driver's Pareto sampler requires; every
    // tenant spans the same slot grid, and the cycle must fit SimDuration.
    if (!cost_min || !cost_max || !alpha_milli || !slots || *cost_min <= 0 ||
        *cost_max < *cost_min || *slots == 0 ||
        *slots > static_cast<std::size_t>(
                     std::numeric_limits<SimDuration>::max() / trace.slot) ||
        (!trace.tenants.empty() &&
         *slots != trace.tenants.front().arrivals.size())) {
      return std::nullopt;
    }
    TenantSchedule schedule;
    schedule.tenant = std::string(row[0]);
    schedule.cost_min = *cost_min;
    schedule.cost_max = *cost_max;
    schedule.cost_alpha = static_cast<double>(*alpha_milli) / 1000.0;
    schedule.arrivals.resize(*slots, 0);
    trace.tenants.push_back(std::move(schedule));
  }
  if (!arrival_header) {
    return std::nullopt;
  }
  // Arrival rows: each (tenant, slot) at most once, so total == sum(arrivals).
  const std::size_t slots =
      trace.tenants.empty() ? 0 : trace.tenants.front().arrivals.size();
  std::vector<bool> seen(trace.tenants.size() * slots, false);
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string_view> row = split_row(line);
    if (row.size() != 3) {
      return std::nullopt;
    }
    const auto tenant = std::find_if(
        trace.tenants.begin(), trace.tenants.end(),
        [&](const TenantSchedule& t) { return t.tenant == row[0]; });
    const auto s = parse_int<std::size_t>(row[1]);
    const auto n = parse_int<std::uint32_t>(row[2]);
    if (tenant == trace.tenants.end() || !s || !n ||
        *s >= tenant->arrivals.size()) {
      return std::nullopt;
    }
    const std::size_t cell =
        static_cast<std::size_t>(tenant - trace.tenants.begin()) * slots + *s;
    if (seen[cell]) {
      return std::nullopt;
    }
    seen[cell] = true;
    tenant->arrivals[*s] = *n;
    tenant->total += *n;
  }
  return trace;
}

}  // namespace arv::load
