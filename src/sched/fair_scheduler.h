// FairScheduler — a fluid-flow model of the Linux Completely Fair Scheduler
// with cgroup bandwidth control.
//
// Once per tick the scheduler distributes `online_cpus * dt` microseconds of
// CPU time among the attached cgroups using per-CPU weighted water-filling:
//
//   * a cgroup's demand is min(runnable threads, |cpuset|) * dt — a thread
//     can use at most one CPU's worth of time per tick;
//   * demand is further capped by the cgroup's remaining cfs_quota in the
//     current cfs_period (throttling);
//   * each CPU's capacity is shared among the cgroups whose cpuset permits
//     that CPU, proportionally to cpu.shares, iterating until no hungry
//     cgroup can be given more (work-conserving: capacity a capped or
//     satisfied cgroup declines flows to the others).
//
// This reproduces exactly the observables Algorithms 1–2 of the paper read:
// per-container usage, system-wide slack (pslack), throttling, and the
// work-conserving "use more than your share when others are idle" behaviour.
//
// Cost. A tick costs work proportional to the live claims, not to every
// cgroup ever attached. The scheduler keeps a *live set*: the attached
// entities whose cgroup still exists, in id order, each with its
// tree-derived claim inputs cached (effective cpuset and its size, shares
// weight, effective bandwidth). Two triggers invalidate it: the tree's
// generation() moving (any create, destroy or knob change) and attach()
// adding an entity. Cgroup ids are never reused, so a destroyed entity leaves
// the live set for good; its stats stay readable. Water-filling visits only
// still-hungry claims, and does no work per repeated CPU: on a CPU that every
// live cpuset contains (common_), it skips the mask tests, reuses the
// previous such CPU's weight sum while no claim has left the hungry list,
// and reuses each claim's offer when the CPU's available capacity is also
// equal. With one cpuset shape, the usual case, a round pays one sum and one
// set of divisions per hungry-list change instead of one per CPU. Most ticks
// repeat the last tick's claims exactly (80-100 % on the perfbench
// workloads), so a tick first compares its claims with the last fill's key
// (dt and, per claim in id order, cpuset by value, weight and demand) and on
// a match copies the stored allocs instead of water-filling. Fraction carry,
// quota, throttling and delivery run every tick: they follow the fill and do
// not feed it.
//
// Bit-exactness contract: claims are formed in id order and every
// floating-point operation (weight sums, offers, carries) runs in the same
// sequence as the straightforward scan of every attached cgroup, so grants,
// throttling and slack are bit-identical to it. A reused sum or offer is one
// that scan would recompute from the same operands in the same order: the
// hungry list only shrinks within a tick, so an unchanged size means the
// same claims in the same order. A reused fill is the fill a fresh scan
// computes: the fill reads nothing but dt, online_cpus_ (fixed) and each
// claim's cpuset, weight and demand, in claim order, all of which the key
// holds by value (common_ only picks which equal operands are reused), and
// every alloc starts at 0. Equal inputs run the same operations on the same
// operands, so they give the same allocs, bit for bit. A seeded differential
// test (tests/sched/live_set_test.cpp) holds the two side by side, with
// cpuset shapes chosen so the reuse paths run, and a steady mode whose ticks
// mostly repeat and otherwise move exactly one key input.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/cgroup/cgroup.h"
#include "src/sim/engine.h"
#include "src/util/stats.h"
#include "src/util/types.h"

namespace arv::obs {
class TraceRecorder;
}

namespace arv::sched {

/// A CPU-time consumer attached to a cgroup (a container's thread
/// population). Grants arrive once per tick via consume().
class Schedulable {
 public:
  virtual ~Schedulable() = default;

  /// Number of threads that would run right now. Each runnable thread can
  /// absorb at most `dt` of CPU time per tick.
  virtual int runnable_threads() const = 0;

  /// Receive `grant` microseconds of CPU time for the tick ending at `now`.
  virtual void consume(SimTime now, SimDuration dt, CpuTime grant) = 0;
};

/// Cumulative per-cgroup counters (monotonic; consumers diff them).
struct EntityStats {
  CpuTime total_usage = 0;      ///< CPU time actually granted.
  CpuTime throttled_time = 0;   ///< demand lost to quota caps.
  CpuTime last_tick_grant = 0;  ///< grant in the most recent tick.
};

class FairScheduler : public sim::TickComponent {
 public:
  FairScheduler(cgroup::Tree& tree, int online_cpus);

  // --- topology -----------------------------------------------------------
  void attach(cgroup::CgroupId id, Schedulable* consumer);
  void detach(cgroup::CgroupId id, Schedulable* consumer);
  bool attached(cgroup::CgroupId id) const;

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "sched.cfs"; }

  // --- observables (what sys_namespace reads) ------------------------------
  int online_cpus() const { return online_cpus_; }

  /// Cumulative granted CPU time for a cgroup (0 if never attached).
  CpuTime total_usage(cgroup::CgroupId id) const;
  CpuTime throttled_time(cgroup::CgroupId id) const;
  EntityStats stats(cgroup::CgroupId id) const;

  /// Cumulative system-wide unused capacity — the paper's pslack source.
  CpuTime total_slack() const { return total_slack_; }

  /// Unused capacity during the most recent tick only.
  CpuTime last_tick_slack() const { return last_tick_slack_; }

  /// Runnable-thread count observed at the last tick (system-wide).
  int nr_running() const { return nr_running_; }

  /// True when no live cgroup has a runnable consumer: a tick right now
  /// would grant nothing and bank one full tick of slack. One leg of
  /// Host::quiescent(), which gates the cluster's idle-host skip.
  bool idle() const;

  /// Apply the cumulative effect of `dt / tick_length` consecutive idle
  /// ticks in one call — the catch-up half of the cluster's skipped-host
  /// fast path. Reproduces tick()'s idle behaviour exactly (slack accrual,
  /// grant zeroing, loadavg decay sample-by-sample so floating point matches
  /// a real tick-by-tick run; a zero average, which decay keeps at zero,
  /// skips the samples); quota refills are skipped because
  /// refill_quota realigns to the period grid on the next active tick
  /// anyway. Asserts idle().
  void accrue_idle(SimDuration dt, SimDuration tick_length);

  /// Linux CFS period length: 24 ms with <= 8 runnable tasks, otherwise
  /// 3 ms * nr_running (§3.2). The sys_namespace update timer uses this.
  SimDuration scheduling_period() const;

  /// Smoothed system load in runnable tasks — the /proc/loadavg analogue
  /// OpenMP's dynamic mode reads. Timescale compressed for simulation.
  double loadavg() const { return loadavg_.value(); }
  void set_loadavg_decay(double decay);

  /// Seed the load average with prior history. The kernel's 15-minute
  /// window spans many benchmark repetitions, so experiments that model a
  /// "warm" machine (§5.2, Figure 10) start from the saturated value
  /// rather than zero.
  void seed_loadavg(double value) { loadavg_.prime(value); }

  /// Register the scheduler's host-wide series (slack, runnable count,
  /// loadavg) with the observability layer. Observation-only.
  void register_trace(obs::TraceRecorder& trace) const;

 private:
  struct Entity {
    std::vector<Schedulable*> consumers;
    CpuTime quota_remaining = kUnlimited;
    SimTime next_refill = 0;
    /// Sub-microsecond allocation remainder carried across ticks, so very
    /// low-weight cgroups still receive their (tiny) share eventually —
    /// CFS's minimum-granularity slices, fluid-model style.
    double fraction_carry = 0.0;
    EntityStats stats;
  };

  /// An entity whose cgroup exists, with its claim's tree-derived inputs.
  struct LiveEntity {
    cgroup::CgroupId id = -1;
    Entity* entity = nullptr;  // std::map nodes are stable
    CpuSet mask;               // effective cpuset
    int cpus = 0;              // mask.count()
    double weight = 0.0;       // cpu.shares
    cgroup::Tree::Bandwidth bandwidth;
  };

  /// One runnable entity's share of the current tick.
  struct Claim {
    Entity* entity = nullptr;
    /// The LiveEntity's mask. attach() may append to live_ from inside
    /// consume(), so this pointer is read only by the fill and its key,
    /// before delivery.
    const CpuSet* mask = nullptr;
    double weight = 0.0;
    double demand = 0.0;     // us of CPU time wanted this tick (post caps)
    double alloc = 0.0;
    double offer = 0.0;      // this claim's offer on the last CPU filled
    double throttled = 0.0;  // demand clipped by quota
    int runnable = 0;
  };

  /// One claim of the last fill: exactly what water_fill() reads of it (the
  /// cpuset by value, as live_set() re-derives masks in place) and its alloc.
  struct Filled {
    CpuSet mask;
    double weight = 0.0;
    double demand = 0.0;
    double alloc = 0.0;
  };

  /// The live set, re-derived first if the tree or the attached set moved;
  /// common_ is re-derived with it.
  const std::vector<LiveEntity>& live_set() const;
  void refill_quota(const LiveEntity& entry, SimTime now);
  /// If claims_ equal the last fill's key, copy its allocs into them.
  bool reuse_last_fill(SimDuration dt);
  /// Per-CPU weighted water-filling of claims_ over dt of every CPU.
  void water_fill(SimDuration dt);

  cgroup::Tree& tree_;
  int online_cpus_;
  /// Every entity ever attached, so stats outlive detach and destroy.
  std::map<cgroup::CgroupId, Entity> entities_;
  /// Cache behind live_set(); attach() appends new entities and marks it stale.
  mutable std::vector<LiveEntity> live_;
  /// CPUs every live cpuset contains: on these the fill needs no mask test.
  mutable CpuSet common_;
  mutable std::uint64_t live_generation_ = 0;
  mutable bool live_stale_ = false;
  // Tick scratch, reused so a tick allocates nothing in steady state.
  std::vector<Claim> claims_;
  std::vector<std::size_t> hungry_;  // indices of claims with unmet demand
  std::vector<double> cpu_capacity_;
  std::vector<Schedulable*> delivery_;  // consumer snapshot: consume() may detach
  std::vector<Filled> last_fill_;  // in claim (id) order
  SimDuration last_fill_dt_ = -1;  // no fill yet
  CpuTime total_slack_ = 0;
  CpuTime last_tick_slack_ = 0;
  int nr_running_ = 0;
  /// Long-memory EMA mirroring the kernel's 15-minute loadavg (compressed
  /// to a ~14 s time constant at 1 ms ticks). The slow window is what makes
  /// libgomp's `n_onln - loadavg` heuristic collapse under sustained load.
  Ema loadavg_{0.99993};
};

}  // namespace arv::sched
