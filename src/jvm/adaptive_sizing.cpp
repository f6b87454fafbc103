#include "src/jvm/adaptive_sizing.h"

#include <algorithm>

#include "src/util/assert.h"

namespace arv::jvm {

/// Grow young when mutator time between minors < kGrowRatio * pause.
constexpr double kGrowRatio = 15.0;
constexpr double kYoungGrowFactor = 1.5;
/// Shrink young when mutator time between minors > kShrinkRatio * pause.
constexpr double kShrinkRatio = 120.0;
constexpr double kYoungShrinkFactor = 0.85;
/// Grow old when used exceeds this fraction of committed.
constexpr double kOldGrowTrigger = 0.70;
/// Promotion pressure: when old usage exceeds this fraction of OldMax,
/// shrink the young generation to cede budget to old (HotSpot balances
/// the generations the same way when the old gen nears its limit).
constexpr double kOldPressureTrigger = 0.85;

SizingDecision AdaptiveSizePolicy::after_minor(const MinorObservation& obs) const {
  ARV_ASSERT(obs.pause >= 0 && obs.mutator_interval >= 0);
  SizingDecision decision;
  decision.young_target = obs.young_committed;
  decision.old_target = obs.old_committed;

  // Promotion pressure overrides the pause/footprint goals: when the old
  // generation is close to its limit, young cedes exactly enough budget
  // that OldMax (VirtualMax minus committed young) regains headroom over
  // the old generation's live data.
  if (obs.old_max != kUnlimited &&
      static_cast<double>(obs.old_used) >
          kOldPressureTrigger * static_cast<double>(obs.old_max)) {
    const Bytes budget = obs.old_max + obs.young_committed;  // == VirtualMax
    const Bytes young_for_headroom = budget - static_cast<Bytes>(
        1.15 * static_cast<double>(obs.old_used));
    decision.young_target = std::min(
        static_cast<Bytes>(static_cast<double>(obs.young_committed) *
                           kYoungShrinkFactor),
        std::max<Bytes>(young_for_headroom, 0));
    decision.old_target = static_cast<Bytes>(
        static_cast<double>(obs.old_used) * kOldHeadroom);
    return decision;
  }

  const double pause = std::max<double>(1.0, static_cast<double>(obs.pause));
  const double interval = static_cast<double>(obs.mutator_interval);
  if (interval < kGrowRatio * pause) {
    // Collections are back-to-back: GC overhead above goal, grow eden.
    decision.young_target = static_cast<Bytes>(
        static_cast<double>(obs.young_committed) * kYoungGrowFactor);
  } else if (interval > kShrinkRatio * pause) {
    // Footprint goal: the heap is larger than the allocation rate needs.
    decision.young_target = static_cast<Bytes>(
        static_cast<double>(obs.young_committed) * kYoungShrinkFactor);
  }

  if (static_cast<double>(obs.old_used) >
      kOldGrowTrigger * static_cast<double>(obs.old_committed)) {
    decision.old_target = static_cast<Bytes>(
        static_cast<double>(obs.old_used) * kOldHeadroom);
  }
  return decision;
}

SizingDecision AdaptiveSizePolicy::after_major(const MajorObservation& obs) const {
  SizingDecision decision;
  decision.young_target = obs.young_committed;
  // Re-center the old generation around its live data with headroom; a
  // major collection is the only point with an exact live measurement.
  decision.old_target = std::max(
      obs.old_committed / 2,
      static_cast<Bytes>(static_cast<double>(obs.old_live) * kOldHeadroom));
  return decision;
}

}  // namespace arv::jvm
