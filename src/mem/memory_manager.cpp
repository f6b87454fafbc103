#include "src/mem/memory_manager.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/obs/trace_recorder.h"
#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::mem {

// Watermarks as fractions of total RAM (the kernel derives them similarly
// from min_free_kbytes and zone size).
constexpr double kMinFrac = 0.01;
constexpr double kLowFrac = 0.03;
constexpr double kHighFrac = 0.06;
static_assert(kMinFrac < kLowFrac && kLowFrac < kHighFrac);

MemoryManager::MemoryManager(cgroup::Tree& tree, const Config& config)
    : tree_(tree), config_(config) {
  ARV_ASSERT(config.total_ram > 0);
  marks_.min = page_align_up(static_cast<Bytes>(
      static_cast<double>(config.total_ram) * kMinFrac));
  marks_.low = page_align_up(static_cast<Bytes>(
      static_cast<double>(config.total_ram) * kLowFrac));
  marks_.high = page_align_up(static_cast<Bytes>(
      static_cast<double>(config.total_ram) * kHighFrac));
}

CgroupMem& MemoryManager::state(cgroup::CgroupId id) { return cgroups_[id]; }

Bytes MemoryManager::hard_limit(cgroup::CgroupId id) const {
  return tree_.exists(id) ? tree_.get(id).mem().limit_in_bytes : kUnlimited;
}

Bytes MemoryManager::soft_limit(cgroup::CgroupId id) const {
  return tree_.exists(id) ? tree_.get(id).mem().soft_limit_in_bytes : kUnlimited;
}

Bytes MemoryManager::free_memory() const {
  return std::max<Bytes>(0, config_.total_ram - host_reserved_ - resident_total_);
}

Bytes MemoryManager::usage(cgroup::CgroupId id) const {
  const auto it = cgroups_.find(id);
  return it == cgroups_.end() ? 0 : it->second.resident;
}

Bytes MemoryManager::swapped(cgroup::CgroupId id) const {
  const auto it = cgroups_.find(id);
  return it == cgroups_.end() ? 0 : it->second.swapped;
}

bool MemoryManager::oom_killed(cgroup::CgroupId id) const {
  const auto it = cgroups_.find(id);
  return it != cgroups_.end() && it->second.oom_killed;
}

void MemoryManager::reserve_host_memory(Bytes bytes) {
  ARV_ASSERT(bytes >= 0);
  host_reserved_ = page_align_up(bytes);
  ARV_ASSERT_MSG(host_reserved_ <= config_.total_ram,
                 "host reservation exceeds physical memory");
}

SimDuration MemoryManager::stall_for(Bytes bytes) const {
  if (bytes <= 0 || config_.swap_bandwidth_per_sec <= 0) {
    return 0;
  }
  return bytes * units::sec / config_.swap_bandwidth_per_sec;
}

Bytes MemoryManager::swap_out(cgroup::CgroupId id, Bytes bytes) {
  CgroupMem& st = state(id);
  const Bytes room = config_.swap_size - swap_used_;
  const Bytes moved = std::min({bytes, st.resident, room});
  if (moved <= 0) {
    return 0;
  }
  st.resident -= moved;
  resident_total_ -= moved;
  st.swapped += moved;
  swap_used_ += moved;
  ++st.swapout_events;
  return moved;
}

ChargeResult MemoryManager::charge(cgroup::CgroupId id, Bytes raw_bytes) {
  ARV_ASSERT(raw_bytes >= 0);
  Bytes bytes = page_align_up(raw_bytes);
  CgroupMem& st = state(id);
  if (st.oom_killed) {
    return ChargeResult::kOomKilled;
  }
  ChargeResult result = ChargeResult::kOk;

  // Hard-limit enforcement: "the container either is killed or starts
  // swapping" (§2.1). Residency is capped at the hard limit; the excess goes
  // to swap.
  const Bytes hard = hard_limit(id);
  st.resident += bytes;
  resident_total_ += bytes;
  if (st.resident > hard) {
    const Bytes excess = st.resident - hard;
    const Bytes moved = swap_out(id, excess);
    if (moved < excess) {
      // Swap is off or full: the kernel OOM-kills the offender.
      st.resident -= bytes;  // roll back
      resident_total_ -= bytes;
      st.oom_killed = true;
      ++oom_kills_;
      ARV_LOG(kInfo, "mem", "cgroup %d OOM-killed at hard limit", id);
      return ChargeResult::kOomKilled;
    }
    result = ChargeResult::kSwapped;
  }

  // Global pressure: waking kswapd happens in tick(); but a charge that
  // would exceed physical memory cannot wait for background reclaim.
  if (free_memory() < marks_.min) {
    ++direct_reclaims_;
    const Bytes deficit = marks_.min - free_memory();
    const Bytes reclaimed = direct_reclaim(deficit);
    if (reclaimed < deficit && free_memory() <= 0) {
      oom_kill_largest();
    }
    result = ChargeResult::kSwapped;
  }
  return st.oom_killed ? ChargeResult::kOomKilled : result;
}

void MemoryManager::uncharge(cgroup::CgroupId id, Bytes raw_bytes) {
  ARV_ASSERT(raw_bytes >= 0);
  Bytes bytes = page_align_up(raw_bytes);
  CgroupMem& st = state(id);
  ARV_ASSERT_MSG(bytes <= st.resident + st.swapped,
                 "uncharging more than was charged");
  // Free swapped pages first: the kernel drops swap entries without I/O.
  const Bytes from_swap = std::min(bytes, st.swapped);
  st.swapped -= from_swap;
  swap_used_ -= from_swap;
  st.resident -= bytes - from_swap;
  resident_total_ -= bytes - from_swap;
}

SimDuration MemoryManager::touch(cgroup::CgroupId id, Bytes bytes) {
  ARV_ASSERT(bytes >= 0);
  CgroupMem& st = state(id);
  const Bytes total = st.resident + st.swapped;
  if (total <= 0 || st.swapped <= 0 || bytes <= 0) {
    return 0;
  }
  // Uniform touch over the committed set: the swapped fraction faults.
  const double swap_frac =
      static_cast<double>(st.swapped) / static_cast<double>(total);
  Bytes faulted = page_align_up(static_cast<Bytes>(
      static_cast<double>(std::min(bytes, total)) * swap_frac));
  faulted = std::min(faulted, st.swapped);
  if (faulted <= 0) {
    return 0;
  }
  ++st.swapin_events;

  const Bytes hard = hard_limit(id);
  if (st.resident + faulted > hard) {
    // Thrashing: every page faulted in evicts another page of this cgroup.
    // Pay for the swap-in and the forced swap-out; residency is unchanged.
    return 2 * stall_for(faulted);
  }
  st.resident += faulted;
  resident_total_ += faulted;
  st.swapped -= faulted;
  swap_used_ -= faulted;
  return stall_for(faulted);
}

Bytes MemoryManager::kswapd_step(Bytes target) {
  // Collect cgroups above their soft limit, with their excess.
  struct Victim {
    cgroup::CgroupId id;
    Bytes excess;
  };
  std::vector<Victim> victims;
  Bytes excess_total = 0;
  for (auto& [id, st] : cgroups_) {
    const Bytes soft = soft_limit(id);
    if (st.resident > soft) {
      const Bytes excess = st.resident - soft;
      victims.push_back({id, excess});
      excess_total += excess;
    }
  }
  if (victims.empty() || target <= 0) {
    return 0;
  }
  Bytes reclaimed = 0;
  for (const Victim& victim : victims) {
    // Proportional to excess, matching the kernel's soft-limit reclaim bias.
    const Bytes share = std::max<Bytes>(
        units::page,
        target * victim.excess / std::max<Bytes>(1, excess_total));
    reclaimed += swap_out(victim.id, std::min(share, victim.excess));
    if (reclaimed >= target) {
      break;
    }
  }
  return reclaimed;
}

Bytes MemoryManager::direct_reclaim(Bytes target) {
  // First try the polite path.
  Bytes reclaimed = kswapd_step(target);
  if (reclaimed >= target) {
    return reclaimed;
  }
  // Then indiscriminately steal from every cgroup, largest first.
  std::vector<cgroup::CgroupId> ids;
  for (const auto& [id, st] : cgroups_) {
    if (st.resident > 0) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end(), [this](cgroup::CgroupId a, cgroup::CgroupId b) {
    if (usage(a) != usage(b)) {
      return usage(a) > usage(b);
    }
    return a < b;
  });
  for (const cgroup::CgroupId id : ids) {
    if (reclaimed >= target) {
      break;
    }
    reclaimed += swap_out(id, target - reclaimed);
  }
  return reclaimed;
}

void MemoryManager::oom_kill_largest() {
  cgroup::CgroupId victim = -1;
  Bytes largest = -1;
  for (const auto& [id, st] : cgroups_) {
    // Strict > over ascending map order pins the tie-break: on equal
    // committed size the LOWEST cgroup id dies. The pin matters for the
    // determinism contract — chaos runs replay byte-identically only if
    // the OOM victim is a pure function of the accounting state.
    if (!st.oom_killed && st.resident + st.swapped > largest) {
      largest = st.resident + st.swapped;
      victim = id;
    }
  }
  if (victim < 0) {
    return;
  }
  CgroupMem& st = state(victim);
  swap_used_ -= st.swapped;
  resident_total_ -= st.resident;
  st.resident = 0;
  st.swapped = 0;
  st.oom_killed = true;
  ++oom_kills_;
  ARV_LOG(kWarn, "mem", "global OOM: killed cgroup %d", victim);
}

void MemoryManager::register_trace(obs::TraceRecorder& trace) const {
  trace.add_gauge("mem.free", "", [this] { return free_memory(); });
  trace.add_gauge("mem.kswapd_active", "",
                  [this] { return kswapd_active_ ? 1 : 0; });
  trace.add_counter("mem.kswapd_wakeups", "", [this] {
    return static_cast<std::int64_t>(kswapd_wakeups_);
  });
  trace.add_counter("mem.direct_reclaims", "", [this] {
    return static_cast<std::int64_t>(direct_reclaims_);
  });
  trace.add_counter("mem.oom_kills", "",
                    [this] { return static_cast<std::int64_t>(oom_kills_); });
  trace.add_gauge("mem.swap_used", "", [this] { return swap_used_; });
}

void MemoryManager::tick(SimTime /*now*/, SimDuration /*dt*/) {
  const Bytes free = free_memory();
  if (!kswapd_active_ && free < marks_.low) {
    kswapd_active_ = true;
    ++kswapd_wakeups_;
  }
  if (kswapd_active_) {
    const Bytes deficit = marks_.high - free_memory();
    if (deficit <= 0) {
      kswapd_active_ = false;
    } else {
      // Scan every tick while below the high watermark, exactly like the
      // kernel's kswapd: even when one pass finds nothing above the soft
      // limits, pressure persists and pages faulted back in are re-stolen.
      kswapd_step(std::min(deficit, config_.kswapd_batch));
      kswapd_active_ = free_memory() < marks_.high;
    }
  }
}

}  // namespace arv::mem
