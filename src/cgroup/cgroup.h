// Control-group model: the resource-limit configuration surface of the
// simulated kernel.
//
// Mirrors the cgroups-v1 knobs the paper uses (§2.1): cpu.shares,
// cpu.cfs_period_us / cpu.cfs_quota_us, cpuset.cpus, memory.limit_in_bytes,
// memory.soft_limit_in_bytes. A change-notification hook reproduces the
// paper's kernel modification (§3.2): "we modify the source code of cgroups
// to invoke ns_monitor if a sys_namespace exists for a control group and
// there is a change to the cgroups settings".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/util/cpuset.h"
#include "src/util/types.h"

namespace arv::cgroup {

using CgroupId = std::int32_t;
inline constexpr CgroupId kRootCgroup = 0;

/// CPU-controller configuration (cpu + cpuset controllers combined).
struct CpuConfig {
  /// cpu.shares — relative weight among siblings. Kernel default is 1024.
  std::int64_t shares = 1024;
  /// cpu.cfs_period_us — bandwidth accounting period.
  SimDuration cfs_period_us = 100'000;
  /// cpu.cfs_quota_us — CPU time usable per period; kUnlimited disables the cap.
  std::int64_t cfs_quota_us = kUnlimited;
  /// cpuset.cpus — permitted CPUs; an empty mask means "all online CPUs".
  CpuSet cpuset;

  /// quota/period as a CPU count, rounded up ("a quota equivalent to 4
  /// cores"); returns `online` when no quota is set.
  int quota_cpus(int online) const;
};

/// Memory-controller configuration.
struct MemConfig {
  /// memory.limit_in_bytes — hard limit; exceeding it means swap or OOM.
  Bytes limit_in_bytes = kUnlimited;
  /// memory.soft_limit_in_bytes — reclaim target under global pressure.
  Bytes soft_limit_in_bytes = kUnlimited;
};

enum class EventKind { kCreated, kDestroyed, kCpuChanged, kMemChanged };

struct Event {
  EventKind kind;
  CgroupId id;
  /// Name of the affected cgroup. For kDestroyed the cgroup is already gone
  /// from the tree when listeners run, so the name travels with the event.
  std::string name;
};

/// One control group. Configuration lives here; runtime accounting (CPU usage,
/// memory charges) lives in the scheduler and memory manager, keyed by id.
class Cgroup {
 public:
  Cgroup(CgroupId id, std::string name, CgroupId parent)
      : id_(id), name_(std::move(name)), parent_(parent) {}

  CgroupId id() const { return id_; }
  const std::string& name() const { return name_; }
  CgroupId parent() const { return parent_; }
  const std::vector<CgroupId>& children() const { return children_; }

  const CpuConfig& cpu() const { return cpu_; }
  const MemConfig& mem() const { return mem_; }

 private:
  friend class Tree;

  CgroupId id_;
  std::string name_;
  CgroupId parent_;
  std::vector<CgroupId> children_;
  CpuConfig cpu_;
  MemConfig mem_;
};

/// The cgroup hierarchy plus the notification fan-out.
class Tree {
 public:
  using Listener = std::function<void(const Event&)>;

  /// `online_cpus` bounds cpuset masks and share-fraction math.
  explicit Tree(int online_cpus);

  int online_cpus() const { return online_cpus_; }

  /// Create a child cgroup. Names must be unique among siblings.
  CgroupId create(const std::string& name, CgroupId parent = kRootCgroup);

  /// Destroy a leaf cgroup (children must be removed first).
  void destroy(CgroupId id);

  bool exists(CgroupId id) const;
  const Cgroup& get(CgroupId id) const;

  /// Look up a direct child of `parent` by name; -1 if absent.
  CgroupId find(const std::string& name, CgroupId parent = kRootCgroup) const;

  // --- knobs; each setter validates and fires kCpuChanged/kMemChanged ---
  void set_cpu_shares(CgroupId id, std::int64_t shares);
  void set_cfs_quota(CgroupId id, std::int64_t quota_us);
  void set_cfs_period(CgroupId id, SimDuration period_us);
  void set_cpuset(CgroupId id, const CpuSet& mask);
  void set_mem_limit(CgroupId id, Bytes limit);
  void set_mem_soft_limit(CgroupId id, Bytes soft_limit);

  /// Effective constraints after walking the path to the root: cpuset is the
  /// intersection, quota-derived CPU cap is the minimum. Shares apply at the
  /// cgroup itself (competition is among top-level containers in this model).
  CpuSet effective_cpuset(CgroupId id) const;
  int effective_quota_cpus(CgroupId id) const;

  /// The tightest CFS bandwidth setting on the path to the root (smallest
  /// quota/period ratio): {cfs_quota_us, cfs_period_us}. Quota is kUnlimited
  /// when no ancestor (or self) sets one. This is what the scheduler's
  /// period accounting must enforce for nested cgroups.
  struct Bandwidth {
    std::int64_t quota_us = kUnlimited;
    SimDuration period_us = 100'000;
  };
  Bandwidth effective_bandwidth(CgroupId id) const;

  /// All currently existing non-root cgroups (stable id order).
  std::vector<CgroupId> all_ids() const;

  /// Register a settings-change listener (the paper's ns_monitor hook).
  void subscribe(Listener listener);

  /// Sum of cpu.shares over all non-root cgroups — the denominator of
  /// Algorithm 1's share fraction. O(1): the sum is maintained across
  /// create/destroy/set_cpu_shares instead of being re-derived per query,
  /// so per-event bound refreshes don't cost O(containers) each.
  std::int64_t total_shares() const { return total_shares_; }

  /// Bumped by every create, destroy and knob change, before listeners run.
  /// Caches of tree-derived values (the scheduler's effective cpusets,
  /// shares and bandwidth) compare it to know when to re-derive.
  std::uint64_t generation() const { return generation_; }

 private:
  Cgroup& get_mutable(CgroupId id);
  void notify(EventKind kind, CgroupId id, const std::string& name);

  int online_cpus_;
  CgroupId next_id_ = 1;
  std::vector<std::unique_ptr<Cgroup>> slots_;  // index == id; null when destroyed
  std::vector<Listener> listeners_;
  std::int64_t total_shares_ = 0;  // Σ cpu.shares over live non-root cgroups
  std::uint64_t generation_ = 0;
};

}  // namespace arv::cgroup
