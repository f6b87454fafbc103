#include "src/util/latency_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/util/rng.h"

namespace arv::util {
namespace {

/// The exact full-sample percentile (p in [0, 100]) of a non-empty sample,
/// linearly interpolated between the two closest ranks.
double exact_percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

TEST(LatencyHistogram, EmptyReportsZeroes) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(50.0), 0);
  EXPECT_EQ(h.count_above(0), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Below 2 * kSubBuckets every value owns its own bucket: the sketch
  // degrades to an exact histogram.
  LatencyHistogram h;
  for (std::int64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_lower(LatencyHistogram::bucket_of(v)), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(v)), v);
    h.record(v);
  }
  EXPECT_EQ(h.percentile(50.0), 15);
  EXPECT_EQ(h.percentile(100.0), 31);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 31);
}

TEST(LatencyHistogram, BucketGeometryIsConsistent) {
  // Every probed value must land inside its claimed bucket, and buckets
  // must tile the axis: upper(i) + 1 == lower(i + 1).
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t v = rng.uniform_int(0, std::int64_t{1} << 62);
    const std::size_t b = LatencyHistogram::bucket_of(v);
    ASSERT_LT(b, LatencyHistogram::kBucketCount);
    EXPECT_LE(LatencyHistogram::bucket_lower(b), v);
    EXPECT_GE(LatencyHistogram::bucket_upper(b), v);
  }
  for (std::size_t b = 0; b + 1 < LatencyHistogram::kBucketCount; ++b) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(b) + 1,
              LatencyHistogram::bucket_lower(b + 1));
  }
}

TEST(LatencyHistogram, RelativeErrorIsBounded) {
  // The documented contract: the bucket upper bound never exceeds the true
  // value by more than 1/kSubBuckets (6.25%).
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t v = rng.uniform_int(1, std::int64_t{1} << 56);
    const std::size_t b = LatencyHistogram::bucket_of(v);
    const std::int64_t upper = LatencyHistogram::bucket_upper(b);
    EXPECT_LE(upper - v,
              v / LatencyHistogram::kSubBuckets)
        << "value " << v << " bucket upper " << upper;
  }
}

TEST(LatencyHistogram, PercentileTracksExactNearestRank) {
  // Against the exact full-sample percentile the histogram replaces: the
  // sketch must stay within its relative error bound, never below.
  Rng rng(23);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(100, 2000000);  // 0.1 ms .. 2 s
    h.record(v);
    samples.push_back(static_cast<double>(v));
  }
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = exact_percentile(samples, p);
    const auto sketch = static_cast<double>(h.percentile(p));
    // The two use different rank conventions (nearest-rank vs interpolated),
    // so allow one order-statistic gap of slop besides the bucket bound.
    EXPECT_GE(sketch, exact * 0.99) << "p" << p;
    EXPECT_LE(sketch,
              exact * (1.0 + 1.0 / LatencyHistogram::kSubBuckets) * 1.01)
        << "p" << p;
  }
}

TEST(LatencyHistogram, PercentileIsClampedToObservedMax) {
  LatencyHistogram h;
  h.record(1000000);
  // One sample: every percentile is that sample, not its bucket's upper end.
  EXPECT_EQ(h.percentile(50.0), 1000000);
  EXPECT_EQ(h.percentile(100.0), 1000000);
}

/// Structural equality through the public surface: aggregates plus the
/// cumulative distribution probed at every bucket boundary.
void expect_same_distribution(const LatencyHistogram& a,
                              const LatencyHistogram& b) {
  ASSERT_EQ(a.count(), b.count());
  ASSERT_EQ(a.sum(), b.sum());
  ASSERT_EQ(a.min(), b.min());
  ASSERT_EQ(a.max(), b.max());
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; i += 7) {
    ASSERT_EQ(a.count_above(LatencyHistogram::bucket_upper(i)),
              b.count_above(LatencyHistogram::bucket_upper(i)))
        << "bucket " << i;
  }
}

TEST(LatencyHistogram, MergeIsExactAndAssociative) {
  Rng rng(31);
  LatencyHistogram parts[3];
  LatencyHistogram whole;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 1000; ++i) {
      const std::int64_t v = rng.uniform_int(0, 10000000);
      parts[p].record(v);
      whole.record(v);
    }
  }
  // (a + b) + c
  LatencyHistogram left = parts[0];
  left.merge(parts[1]);
  left.merge(parts[2]);
  // a + (b + c)
  LatencyHistogram right_tail = parts[1];
  right_tail.merge(parts[2]);
  LatencyHistogram right = parts[0];
  right.merge(right_tail);
  expect_same_distribution(left, right);
  // Both must equal recording every sample into one histogram directly.
  expect_same_distribution(left, whole);
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram h;
  h.record(123456);
  h.record(789);
  LatencyHistogram empty;
  LatencyHistogram merged = h;
  merged.merge(empty);
  expect_same_distribution(h, merged);
  LatencyHistogram other;
  other.merge(h);
  expect_same_distribution(h, other);
}

TEST(LatencyHistogram, CountAboveUndercountsByAtMostOneBucket) {
  LatencyHistogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) {
    h.record(v * 1000);
  }
  // Threshold mid-range: the count must be within one bucket's population
  // of the true strict count.
  const std::int64_t threshold = 500000;
  std::uint64_t exact = 0;
  for (std::int64_t v = 1; v <= 1000; ++v) {
    if (v * 1000 > threshold) {
      ++exact;
    }
  }
  const std::uint64_t sketch = h.count_above(threshold);
  EXPECT_LE(sketch, exact);
  // One straddling bucket at ~500k is at most 500k/16 wide => <= ~32 samples
  // at 1k spacing.
  EXPECT_GE(sketch + 40, exact);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99.0), 0);
}

}  // namespace
}  // namespace arv::util
