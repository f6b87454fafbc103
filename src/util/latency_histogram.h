// LatencyHistogram — a bounded, mergeable, log-bucketed latency sketch.
//
// util::percentile copies the full sample vector on every call; at the
// workload engine's scale (millions of requests per simulated day) both the
// copy and the per-sample storage are unaffordable, and the old reservoir cap
// silently truncated exactly the tail the percentiles are supposed to
// measure. This histogram stores one counter per logarithmic bucket instead:
//
//   * HDR-style bucketing — values below 2^kSubBucketBits are exact; above,
//     each power-of-two octave splits into kSubBuckets linear sub-buckets, so
//     the relative width of any bucket is at most 1/kSubBuckets (6.25%).
//   * Bounded — at most kBucketCount counters whatever the value range
//     (full non-negative int64), so memory is O(1) per stream.
//   * Mergeable — merge() adds counters element-wise; it is exact,
//     commutative, and associative, so per-replica histograms can be folded
//     across migrations, crashes, and fleet-level aggregation in any order.
//
// Everything is integer, so percentiles are bit-identical across platforms
// — the histogram sits inside the byte-identical-trace
// contract. percentile() reports the bucket's upper bound (conservative:
// never below the true nearest-rank sample, at most 1/kSubBuckets above).
#pragma once

#include <array>
#include <cstdint>

namespace arv::util {

class LatencyHistogram {
 public:
  /// Sub-buckets per octave; the relative error bound is 1/kSubBuckets.
  static constexpr int kSubBucketBits = 4;
  static constexpr std::int64_t kSubBuckets = std::int64_t{1} << kSubBucketBits;
  /// Highest bucket index + 1 for 63-bit non-negative values (msb <= 62).
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kSubBuckets) * (62 - kSubBucketBits + 1) +
      static_cast<std::size_t>(kSubBuckets);

  /// Record one sample (negative values clamp to 0).
  void record(std::int64_t value);
  /// Record `n` samples of the same value (batch injection fast path).
  void record_n(std::int64_t value, std::uint64_t n);

  /// Fold `other` into this histogram. Exact: bucket counts, count, sum,
  /// min and max all combine losslessly.
  void merge(const LatencyHistogram& other);

  void reset();

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  double mean() const;
  /// Exact extrema of the recorded samples (0 when empty).
  std::int64_t min() const { return count_ > 0 ? min_ : 0; }
  std::int64_t max() const { return count_ > 0 ? max_ : 0; }

  /// Nearest-rank percentile, p in [0, 100]. Returns the upper bound of the
  /// bucket holding the rank-th sample: >= the true sample and within a
  /// factor (1 + 1/kSubBuckets) of it. 0 when empty.
  std::int64_t percentile(double p) const;

  /// Samples recorded with a value strictly greater than `threshold`,
  /// counting only buckets that lie entirely above it (an under-count by at
  /// most the one straddling bucket) — the SLO latency-violation probe.
  std::uint64_t count_above(std::int64_t threshold) const;

  // --- windowed (delta) views ------------------------------------------------
  // A cumulative histogram snapshotted at round boundaries gives an exact
  // per-round distribution: bucket counts only ever grow, so subtracting the
  // previous round's snapshot bucket-wise isolates the samples recorded in
  // between. `baseline` must be an earlier snapshot of the same (possibly
  // merged) stream — every bucket of `baseline` must be <= this one's.

  /// Samples recorded since `baseline` was captured.
  std::uint64_t count_since(const LatencyHistogram& baseline) const;
  /// Nearest-rank percentile over only the samples recorded since
  /// `baseline` — the overload controller's round-latency signal. 0 when no
  /// samples landed in between.
  std::int64_t percentile_since(const LatencyHistogram& baseline,
                                double p) const;

  // --- bucket geometry (exposed for the error-bound tests) -------------------
  static std::size_t bucket_of(std::int64_t value);
  /// Smallest / largest value mapping to bucket `index`.
  static std::int64_t bucket_lower(std::size_t index);
  static std::int64_t bucket_upper(std::size_t index);

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace arv::util
