#include "src/util/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/util/assert.h"

namespace arv::util {

std::size_t LatencyHistogram::bucket_of(std::int64_t value) {
  if (value < 0) {
    value = 0;
  }
  if (value < 2 * kSubBuckets) {
    return static_cast<std::size_t>(value);  // width-1 buckets: exact
  }
  const int msb =
      63 - std::countl_zero(static_cast<std::uint64_t>(value));
  const int shift = msb - kSubBucketBits;
  return static_cast<std::size_t>(
      (static_cast<std::int64_t>(msb - kSubBucketBits) * kSubBuckets) +
      (value >> shift));
}

std::int64_t LatencyHistogram::bucket_lower(std::size_t index) {
  ARV_ASSERT(index < kBucketCount);
  if (index < static_cast<std::size_t>(2 * kSubBuckets)) {
    return static_cast<std::int64_t>(index);
  }
  const std::int64_t block = static_cast<std::int64_t>(index) / kSubBuckets;
  const std::int64_t sub = static_cast<std::int64_t>(index) % kSubBuckets;
  const int shift = static_cast<int>(block) - 1;
  return (kSubBuckets + sub) << shift;
}

std::int64_t LatencyHistogram::bucket_upper(std::size_t index) {
  ARV_ASSERT(index < kBucketCount);
  if (index < static_cast<std::size_t>(2 * kSubBuckets)) {
    return static_cast<std::int64_t>(index);
  }
  const std::int64_t block = static_cast<std::int64_t>(index) / kSubBuckets;
  const int shift = static_cast<int>(block) - 1;
  // Width minus one first: the last bucket ends at INT64_MAX, and
  // lower + width would overflow on the way there.
  return bucket_lower(index) + ((std::int64_t{1} << shift) - 1);
}

void LatencyHistogram::record(std::int64_t value) { record_n(value, 1); }

void LatencyHistogram::record_n(std::int64_t value, std::uint64_t n) {
  if (n == 0) {
    return;
  }
  if (value < 0) {
    value = 0;
  }
  counts_[bucket_of(value)] += n;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += n;
  sum_ += value * static_cast<std::int64_t>(n);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::reset() { *this = LatencyHistogram{}; }

double LatencyHistogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::int64_t LatencyHistogram::percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Nearest rank, 1-based: the same convention util::percentile uses.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      // The true sample lies inside this bucket; report its upper bound,
      // clamped to the exact max for the final bucket of the distribution.
      return std::min(bucket_upper(i), max_);
    }
  }
  return max_;
}

std::uint64_t LatencyHistogram::count_above(std::int64_t threshold) const {
  if (count_ == 0 || threshold >= max_) {
    return 0;
  }
  std::uint64_t above = 0;
  for (std::size_t i = bucket_of(threshold < 0 ? 0 : threshold);
       i < kBucketCount; ++i) {
    if (bucket_lower(i) > threshold) {
      above += counts_[i];
    }
  }
  return above;
}

std::uint64_t LatencyHistogram::count_since(
    const LatencyHistogram& baseline) const {
  ARV_ASSERT_MSG(count_ >= baseline.count_,
                 "baseline is not an earlier snapshot of this stream");
  return count_ - baseline.count_;
}

std::int64_t LatencyHistogram::percentile_since(
    const LatencyHistogram& baseline, double p) const {
  const std::uint64_t window = count_since(baseline);
  if (window == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(window))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    ARV_ASSERT(counts_[i] >= baseline.counts_[i]);
    seen += counts_[i] - baseline.counts_[i];
    if (seen >= rank) {
      // max_ bounds the whole stream, so it also bounds the window.
      return std::min(bucket_upper(i), max_);
    }
  }
  return max_;
}

}  // namespace arv::util
