// Ns_Monitor — the system-wide kernel daemon of §3.1/§3.2.
//
// Two responsibilities, exactly as in the paper:
//   1. React to cgroup-setting changes (container creation/termination,
//      adjusted limits) by refreshing the affected sys_namespace's static
//      bounds. This is wired through cgroup::Tree's notification hook.
//      Only the directly-changed cgroup's namespace is refreshed inline —
//      O(1) per event. The share-fraction ripple to every *other* namespace
//      (Σ cpu.shares is a global denominator) is coalesced under a dirty
//      flag and applied in one pass at the next update round, so a ramp of
//      N container creations costs O(N) total instead of O(N²).
//   2. Drive the periodic effective-CPU/effective-memory updates. The interval
//      is the CFS scheduling period (24 ms for <= 8 runnable tasks, else
//      3 ms * nr_running), re-read after every firing, "so any changes to
//      the CPU allocation of containers are immediately reflected". The same
//      interval is used for effective memory. The engine drives this cadence
//      through tick_period(): the monitor is dispatched once per scheduling
//      period rather than polling every tick.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "src/cgroup/cgroup.h"
#include "src/core/sys_namespace.h"
#include "src/mem/memory_manager.h"
#include "src/obs/trace_recorder.h"
#include "src/sched/fair_scheduler.h"
#include "src/sim/engine.h"

namespace arv::core {

class NsMonitor : public sim::TickComponent {
 public:
  /// `engine` supplies the current simulated time for registration stamps;
  /// the monitor does not schedule through it.
  NsMonitor(const sim::Engine& engine, cgroup::Tree& tree,
            sched::FairScheduler& scheduler, mem::MemoryManager& memory);

  /// Attach a container's sys_namespace to the monitor. Bounds and limits
  /// are refreshed immediately; periodic updates begin at the next firing,
  /// with the first CPU observation window starting *now* (a container
  /// registered at t=10s must not be judged on a 10-second window).
  void register_ns(const std::shared_ptr<SysNamespace>& ns);
  void unregister_ns(cgroup::CgroupId id);

  std::shared_ptr<SysNamespace> lookup(cgroup::CgroupId id) const;
  std::size_t registered_count() const { return namespaces_.size(); }

  /// All registered namespaces in cgroup-id order. Cluster-level consumers
  /// (placement, rebalancing) read each container's effective view from here.
  std::vector<std::shared_ptr<SysNamespace>> views() const;

  /// Force an immediate update round (used by tests and the overhead bench).
  /// Applies any coalesced bound refresh first.
  void update_all(SimTime now);

  /// True when a cgroup event has invalidated the share-fraction bounds and
  /// the coalesced refresh pass has not run yet.
  bool bounds_refresh_pending() const { return bounds_dirty_; }

  /// Override the update interval with a fixed period instead of tracking
  /// the scheduler's period (§3.2). 0 restores the paper's behaviour.
  /// Exists for the update-period ablation study.
  void set_fixed_update_period(SimDuration period) { fixed_period_ = period; }

  std::uint64_t update_rounds() const { return update_rounds_; }

  /// Fault injection: while stalled, scheduled update rounds are skipped and
  /// every sys_namespace keeps serving its last-computed view (stale reads —
  /// the failure mode a wedged daemon produces). Observation windows are NOT
  /// reset, so the first round after the stall spans the whole gap and
  /// catches up in one pass. Explicit update_all() calls still work.
  void set_stalled(bool stalled) { stalled_ = stalled; }
  bool stalled() const { return stalled_; }
  /// Update rounds that were due but skipped because of a stall.
  std::uint64_t stalled_rounds() const { return stalled_rounds_; }

  /// Attach the observability layer. Registers the monitor's host-wide
  /// update-round counter plus, for every current and future sys_namespace,
  /// the Algorithm 1/2 series (e_cpu, e_mem, bounds, update counters) under
  /// the owning container's name. Pass nullptr to stop registering.
  void set_trace(obs::TraceRecorder* trace);

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "core.ns_monitor"; }
  /// §3.2: one update round per CFS scheduling period.
  SimDuration tick_period() const override {
    return fixed_period_ > 0 ? fixed_period_ : scheduler_.scheduling_period();
  }

 private:
  struct Tracked {
    std::shared_ptr<SysNamespace> ns;
    CpuTime last_usage = 0;
    SimTime last_update = 0;
    std::vector<obs::SeriesHandle> trace_handles;
  };

  void on_cgroup_event(const cgroup::Event& event);
  void register_ns_trace(Tracked& tracked);

  const sim::Engine& engine_;
  cgroup::Tree& tree_;
  sched::FairScheduler& scheduler_;
  mem::MemoryManager& memory_;
  std::map<cgroup::CgroupId, Tracked> namespaces_;
  SimDuration fixed_period_ = 0;
  CpuTime last_slack_ = 0;
  bool bounds_dirty_ = false;
  bool stalled_ = false;
  std::uint64_t update_rounds_ = 0;
  std::uint64_t stalled_rounds_ = 0;
  obs::TraceRecorder* trace_ = nullptr;  ///< not owned; may be null
};

}  // namespace arv::core
