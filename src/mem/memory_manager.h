// MemoryManager — the simulated kernel's physical-memory and reclaim model.
//
// Reproduces the machinery Algorithm 2 of the paper observes and reacts to:
//
//   * per-cgroup resident/swapped accounting against hard and soft limits;
//   * the three kswapd watermarks (min/low/high): background reclaim starts
//     when free memory drops below `low` and steals pages from cgroups above
//     their soft limit until free memory recovers to `high`; below `min`,
//     direct reclaim indiscriminately steals from every cgroup;
//   * a swap device with a bandwidth cost model: touching swapped pages
//     stalls the toucher, and touching swapped pages while pinned at the
//     hard limit degenerates into thrashing (swap-in forces swap-out).
//
// All byte amounts are page-aligned internally.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/cgroup/cgroup.h"
#include "src/sim/engine.h"
#include "src/util/types.h"

namespace arv::obs {
class TraceRecorder;
}

namespace arv::mem {

struct Watermarks {
  Bytes min = 0;
  Bytes low = 0;
  Bytes high = 0;
};

struct Config {
  Bytes total_ram = 128 * units::GiB;
  /// Swap capacity; 0 disables swap (hard-limit breaches then OOM-kill).
  Bytes swap_size = 64 * units::GiB;
  /// Cost of moving pages between RAM and swap, as stall time per byte.
  /// The paper's testbed swaps to a SATA HDD, and page faults are mostly
  /// random 4 KiB I/O — effective throughput sits far below the drive's
  /// sequential rate.
  Bytes swap_bandwidth_per_sec = 30 * units::MiB;
  /// How much kswapd reclaims per tick while active.
  Bytes kswapd_batch = 64 * units::MiB;
};

/// Per-cgroup memory state.
struct CgroupMem {
  Bytes resident = 0;
  Bytes swapped = 0;
  bool oom_killed = false;
  std::uint64_t swapin_events = 0;
  std::uint64_t swapout_events = 0;
};

enum class ChargeResult { kOk, kSwapped, kOomKilled };

class MemoryManager : public sim::TickComponent {
 public:
  MemoryManager(cgroup::Tree& tree, const Config& config);

  // --- charging API used by runtimes --------------------------------------
  /// Commit `bytes` of new memory to cgroup `id`. A charge that would exceed
  /// the hard limit swaps out the excess (or OOM-kills if swap is off/full).
  /// A charge that would exhaust physical memory pushes the system below the
  /// watermarks and wakes kswapd; if even direct reclaim cannot find room,
  /// the largest over-soft-limit cgroup is OOM-killed.
  ChargeResult charge(cgroup::CgroupId id, Bytes bytes);

  /// Release committed memory (from resident first, then swap).
  void uncharge(cgroup::CgroupId id, Bytes bytes);

  /// Model the cgroup touching `bytes` of its committed set (uniformly at
  /// random over resident+swapped). Returns the stall time spent faulting
  /// swapped pages back in. Touching while pinned at the hard limit swaps an
  /// equal amount back out (thrashing: double cost, no progress).
  SimDuration touch(cgroup::CgroupId id, Bytes bytes);

  // --- observables ----------------------------------------------------------
  Bytes total_ram() const { return config_.total_ram; }
  Bytes free_memory() const;
  Bytes usage(cgroup::CgroupId id) const;    ///< resident bytes
  Bytes swapped(cgroup::CgroupId id) const;  ///< swapped-out bytes
  Bytes committed(cgroup::CgroupId id) const { return usage(id) + swapped(id); }
  bool oom_killed(cgroup::CgroupId id) const;
  const Watermarks& watermarks() const { return marks_; }

  /// True while kswapd is actively reclaiming (between crossing `low` and
  /// recovering to `high`) — Algorithm 2's reset condition.
  bool kswapd_active() const { return kswapd_active_; }
  std::uint64_t kswapd_wakeups() const { return kswapd_wakeups_; }
  std::uint64_t direct_reclaims() const { return direct_reclaims_; }
  std::uint64_t oom_kills() const { return oom_kills_; }

  /// Pin some RAM outside any cgroup (kernel/other-host usage), shrinking
  /// what containers can use. Used by experiments with background pressure.
  void reserve_host_memory(Bytes bytes);

  /// Register host-wide memory series (free memory, kswapd/reclaim/OOM
  /// activity, swap) with the observability layer. Observation-only.
  void register_trace(obs::TraceRecorder& trace) const;

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "mem.mm"; }

 private:
  /// The cgroup's state, created empty on first use.
  CgroupMem& state(cgroup::CgroupId id);
  /// The cgroup's state, or nullptr if it was never used.
  const CgroupMem* find(cgroup::CgroupId id) const;
  Bytes hard_limit(cgroup::CgroupId id) const;
  Bytes soft_limit(cgroup::CgroupId id) const;

  /// Move up to `bytes` of `id`'s resident pages to swap; returns moved.
  Bytes swap_out(cgroup::CgroupId id, Bytes bytes);

  /// Background reclaim step: steal from over-soft-limit cgroups,
  /// proportionally to their excess. Returns bytes reclaimed.
  Bytes kswapd_step(Bytes target);

  /// Direct reclaim: steal from all cgroups proportionally to residency.
  Bytes direct_reclaim(Bytes target);

  void oom_kill_largest();
  SimDuration stall_for(Bytes bytes) const;

  cgroup::Tree& tree_;
  Config config_;
  Watermarks marks_;
  /// Indexed by cgroup id (ids are small and never reused); an entry is
  /// present from the cgroup's first use on, and destroyed cgroups keep it,
  /// so late uncharges stay safe. Scans visit present ids in ascending order.
  std::vector<std::optional<CgroupMem>> cgroups_;
  Bytes host_reserved_ = 0;
  /// Σ resident over cgroups_, kept at every write of CgroupMem::resident
  /// the way swap_used_ tracks Σ swapped, so free_memory() is O(1) rather
  /// than a walk over every cgroup ever charged (dead ones included).
  Bytes resident_total_ = 0;
  Bytes swap_used_ = 0;
  bool kswapd_active_ = false;
  std::uint64_t kswapd_wakeups_ = 0;
  std::uint64_t direct_reclaims_ = 0;
  std::uint64_t oom_kills_ = 0;
};

}  // namespace arv::mem
