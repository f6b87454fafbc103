// AdaptiveSizePolicy — a compact model of HotSpot's PS ergonomics.
//
// After every collection HotSpot's adaptive sizing nudges the committed
// generation sizes toward a GC-overhead goal: grow the young generation when
// collections come too close together (high GC overhead), shrink it when the
// mutator runs long between collections (wasted footprint), and keep the old
// generation comfortably above its live data. The §4.2 elastic heap reuses
// this machinery unchanged — it only moves the *limits* the policy respects.
#pragma once

#include "src/util/types.h"

namespace arv::jvm {

/// Keep old committed at least this factor over its live data.
inline constexpr double kOldHeadroom = 1.5;

struct MinorObservation {
  SimDuration pause;            ///< duration of the minor collection
  SimDuration mutator_interval; ///< mutator time since the previous minor
  Bytes young_committed;
  Bytes old_committed;
  Bytes old_used;               ///< after promotion
  Bytes old_max = kUnlimited;   ///< current OldMax (VirtualMax - young)
};

struct MajorObservation {
  Bytes old_live;  ///< old-generation live data after compaction
  Bytes old_committed;
  Bytes young_committed;
};

struct SizingDecision {
  Bytes young_target;
  Bytes old_target;
};

class AdaptiveSizePolicy {
 public:
  SizingDecision after_minor(const MinorObservation& obs) const;
  SizingDecision after_major(const MajorObservation& obs) const;
};

}  // namespace arv::jvm
