#include "src/util/latency_histogram.h"

#include <algorithm>
#include <cmath>

#include "src/util/assert.h"

namespace arv::util {

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

}  // namespace arv::util
