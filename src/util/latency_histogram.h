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
//     commutative, and associative, so a replica's histogram folds into its
//     pod's archive at teardown, and a pod's history into a router's
//     running record at enrollment, with nothing lost either way.
//
// Everything is integer, so percentiles are bit-identical across platforms
// — the histogram sits inside the byte-identical-trace
// contract. percentile() reports the bucket's upper bound (conservative:
// never below the true nearest-rank sample, at most 1/kSubBuckets above).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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

  /// Record one sample (negative values clamp to 0). Inline, with
  /// bucket_of(): a routed request's completion is recorded three times
  /// (its sink, the router's record, the replica's round record).
  void record(std::int64_t value) {
    if (value < 0) {
      value = 0;
    }
    ++counts_[bucket_of(value)];
    if (count_ == 0) {
      min_ = value;
      max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
  }

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

  // --- bucket geometry (the error-bound tests; admission's round p50) -------
  static std::size_t bucket_of(std::int64_t value) {
    if (value < 0) {
      value = 0;
    }
    if (value < 2 * kSubBuckets) {
      return static_cast<std::size_t>(value);  // width-1 buckets: exact
    }
    const int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(value));
    const int shift = msb - kSubBucketBits;
    return static_cast<std::size_t>(
        (static_cast<std::int64_t>(msb - kSubBucketBits) * kSubBuckets) +
        (value >> shift));
  }
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
