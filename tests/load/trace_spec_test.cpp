#include "src/load/trace_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"

namespace arv::load {
namespace {

using namespace arv::units;

// Pinned by TraceSpec.CompileGolden (values recorded from the reference
// build; any platform must reproduce them bit-for-bit).
constexpr std::uint64_t kGoldenTotal = 4962;
constexpr std::uint64_t kGoldenApi = 3685;
constexpr std::uint64_t kGoldenHead = 7851502628164928705ull;

// --- deterministic math -------------------------------------------------------

TEST(DetMath, SinPermilleHitsAnchorsExactly) {
  EXPECT_EQ(det::sin_permille(0), 0);
  EXPECT_EQ(det::sin_permille(500), 1000);
  EXPECT_EQ(det::sin_permille(1000), 0);
  EXPECT_EQ(det::sin_permille(1500), -1000);
  // Wrapping, including negatives.
  EXPECT_EQ(det::sin_permille(2500), 1000);
  EXPECT_EQ(det::sin_permille(-500), -1000);
}

TEST(DetMath, SinPermilleTracksLibmSine) {
  for (std::int64_t phase = 0; phase < 2000; phase += 7) {
    const double truth =
        std::sin(static_cast<double>(phase) * 3.14159265358979323846 / 1000.0);
    EXPECT_NEAR(static_cast<double>(det::sin_permille(phase)) / 1000.0, truth,
                0.003)
        << "phase " << phase;
  }
}

TEST(DetMath, ExpAndLnMatchLibm) {
  for (const double x : {-8.0, -2.5, -0.3, 0.0, 0.4, 1.0, 3.7, 12.0}) {
    EXPECT_NEAR(det::det_exp(x), std::exp(x), std::exp(x) * 1e-12) << x;
  }
  for (const double x : {1e-6, 0.01, 0.5, 1.0, 2.718281828, 1000.0, 1e12}) {
    EXPECT_NEAR(det::det_ln(x), std::log(x), 1e-10) << x;
  }
  EXPECT_NEAR(det::det_pow(2.0, 10.0), 1024.0, 1e-9);
  EXPECT_NEAR(det::det_pow(81.0, 0.5), 9.0, 1e-10);
}

TEST(DetMath, PoissonMeanAndDeterminism) {
  Rng rng(99);
  const double lambda = 37.5;
  std::uint64_t total = 0;
  const int draws = 4000;
  for (int i = 0; i < draws; ++i) {
    total += det::poisson(rng, lambda);
  }
  const double mean = static_cast<double>(total) / draws;
  EXPECT_NEAR(mean, lambda, lambda * 0.03);
  // Same seed => same sequence, bit for bit.
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(det::poisson(a, 3.7), det::poisson(b, 3.7));
  }
  Rng z(1);
  EXPECT_EQ(det::poisson(z, 0.0), 0u);
}

TEST(DetMath, BoundedParetoStaysInRangeAndIsHeavyTailed) {
  Rng rng(5);
  const std::int64_t lo = 1000;
  const std::int64_t hi = 100000;
  std::int64_t sum = 0;
  std::int64_t max_seen = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const std::int64_t v =
        det::bounded_pareto_quantile(rng.uniform(), lo, hi, 1.3);
    ASSERT_GE(v, lo);
    ASSERT_LE(v, hi);
    sum += v;
    max_seen = std::max(max_seen, v);
  }
  const double mean = static_cast<double>(sum) / draws;
  // Mass concentrates near lo but the tail reaches far: the heavy-tail
  // signature (mean well below the midpoint, max near the cap).
  EXPECT_LT(mean, 12000.0);
  EXPECT_GT(mean, static_cast<double>(lo));
  EXPECT_GT(max_seen, hi / 2);
}

// --- compilation --------------------------------------------------------------

TraceSpec small_spec() {
  TraceSpec spec;
  spec.duration = 10 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 500;
  spec.diurnal_amplitude = 0.5;
  spec.seed = 1234;
  spec.tenants.push_back({"api", 3.0, 1 * msec, 20 * msec, 1.3});
  spec.tenants.push_back({"batch", 1.0, 5 * msec, 80 * msec, 1.1});
  return spec;
}

TEST(TraceSpec, CompileIsDeterministic) {
  const TraceSpec spec = small_spec();
  const CompiledTrace a = compile(spec);
  const CompiledTrace b = compile(spec);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
    EXPECT_EQ(a.tenants[i].arrivals, b.tenants[i].arrivals);
    EXPECT_EQ(a.tenants[i].total, b.tenants[i].total);
  }
}

TEST(TraceSpec, CompileGolden) {
  // Pinned output of a fixed spec+seed: the schedule must be identical on
  // every platform, compiler, and build type — the golden half of the
  // byte-identical-trace contract for the workload engine. If this fails,
  // some arithmetic stopped being deterministic; do not just re-pin it.
  const CompiledTrace trace = compile(small_spec());
  ASSERT_EQ(trace.tenants.size(), 2u);
  ASSERT_EQ(trace.tenants[0].arrivals.size(), 100u);
  EXPECT_EQ(trace.slot, 100 * msec);
  const std::uint64_t total = trace.total_arrivals();
  const std::uint64_t api = trace.tenants[0].total;
  const std::uint64_t batch = trace.tenants[1].total;
  EXPECT_EQ(api + batch, total);
  // Cycle mean is 500 rps over 10 s => ~5000 arrivals, 3:1 tenant split.
  EXPECT_NEAR(static_cast<double>(total), 5000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(api) / static_cast<double>(total), 0.75,
              0.05);
  // The exact pinned values (recorded from the reference build).
  EXPECT_EQ(total, kGoldenTotal);
  EXPECT_EQ(api, kGoldenApi);
  std::uint64_t head = 0;
  for (std::size_t s = 0; s < 10; ++s) {
    head = head * 131 + trace.tenants[0].arrivals[s];
  }
  EXPECT_EQ(head, kGoldenHead);
}

TEST(TraceSpec, DeterministicProcessEmitsExactCounts) {
  TraceSpec spec = small_spec();
  spec.process = ArrivalProcess::kDeterministic;
  spec.diurnal_amplitude = 0.0;
  const CompiledTrace trace = compile(spec);
  // Flat 500 rps split 3:1 over 10 s: totals are exact, not statistical.
  EXPECT_EQ(trace.tenants[0].total, 3750u);
  EXPECT_EQ(trace.tenants[1].total, 1250u);
}

TEST(TraceSpec, DiurnalShapePeaksMidCycle) {
  TraceSpec spec = small_spec();
  spec.process = ArrivalProcess::kDeterministic;
  spec.diurnal_amplitude = 0.8;
  const CompiledTrace trace = compile(spec);
  const auto& a = trace.tenants[0].arrivals;
  // sin peaks at 1/4 cycle and troughs at 3/4: slot 25 must far exceed 75.
  EXPECT_GT(a[25], a[75] * 3);
}

TEST(TraceSpec, FlashCrowdMultipliesitsWindow) {
  TraceSpec base = small_spec();
  base.process = ArrivalProcess::kDeterministic;
  base.diurnal_amplitude = 0.0;
  TraceSpec spiked = base;
  FlashCrowd crowd;
  crowd.start = 4 * sec;
  crowd.ramp = 1 * sec;
  crowd.hold = 1 * sec;
  crowd.decay = 1 * sec;
  crowd.magnitude = 3.0;
  spiked.flash_crowds.push_back(crowd);
  const CompiledTrace calm = compile(base);
  const CompiledTrace hot = compile(spiked);
  // Inside the hold window demand triples; outside it nothing changes.
  EXPECT_NEAR(static_cast<double>(hot.tenants[0].arrivals[52]),
              3.0 * static_cast<double>(calm.tenants[0].arrivals[52]), 2.0);
  EXPECT_EQ(hot.tenants[0].arrivals[10], calm.tenants[0].arrivals[10]);
  EXPECT_EQ(hot.tenants[0].arrivals[90], calm.tenants[0].arrivals[90]);
}

}  // namespace
}  // namespace arv::load
