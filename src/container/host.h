// Host — the simulated machine: engine + kernel subsystems wired together.
//
// Owns the cgroup tree, the CFS-like scheduler, the memory manager, the
// process table, the Ns_Monitor, and the virtual sysfs, and registers the
// tick components in model order (scheduler grants CPU, then memory runs
// kswapd, then the monitor recomputes resource views).
#pragma once

#include <memory>

#include "src/cgroup/cgroup.h"
#include "src/core/ns_monitor.h"
#include "src/mem/memory_manager.h"
#include "src/obs/trace_recorder.h"
#include "src/proc/process.h"
#include "src/sched/fair_scheduler.h"
#include "src/sim/engine.h"
#include "src/vfs/virtual_sysfs.h"

namespace arv::container {

struct HostConfig {
  int cpus = 20;                        ///< the paper's dual 10-core Xeon
  Bytes ram = 128 * units::GiB;         ///< the paper's testbed memory
  mem::Config mem;                      ///< total_ram is overwritten from `ram`
  SimDuration tick = 1 * units::msec;
  /// Attach the observability layer: every kernel subsystem registers its
  /// series with a TraceRecorder that samples after the Ns_Monitor each
  /// tick. Off by default — tracing must never change behaviour either way.
  bool enable_tracing = false;
  obs::TraceConfig trace;               ///< sampling cadence when tracing
};

class Host {
 public:
  explicit Host(const HostConfig& config = {});
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  sim::Engine& engine() { return engine_; }
  cgroup::Tree& cgroups() { return tree_; }
  sched::FairScheduler& scheduler() { return scheduler_; }
  mem::MemoryManager& memory() { return memory_; }
  proc::ProcessTable& processes() { return processes_; }
  core::NsMonitor& monitor() { return monitor_; }
  vfs::VirtualSysfs& sysfs() { return sysfs_; }

  /// The trace recorder, or nullptr when tracing is disabled.
  obs::TraceRecorder* trace() { return trace_.get(); }
  const obs::TraceRecorder* trace() const { return trace_.get(); }

  int cpus() const { return config_.cpus; }
  Bytes ram() const { return config_.ram; }
  SimTime now() const { return engine_.now(); }
  void run_for(SimDuration duration) { engine_.run_for(duration); }

  /// True when stepping this host would provably change nothing but the
  /// clock and idle-slack counters: no pending one-shot events, no
  /// components beyond the three base subsystems (so no trace recorder),
  /// no registered container views, no reclaim in flight or due, and no
  /// runnable CPU consumer. The cluster's idle-host skip
  /// freezes exactly the hosts for which this holds; advance_idle() later
  /// replays the frozen interval in O(1) per subsystem.
  bool quiescent() const;

  /// Fast-forward a quiescent host's clock to `to`, applying the interval's
  /// cumulative effects analytically (idle slack accrual, loadavg decay).
  /// Asserts quiescent(); no-op when already at `to`.
  void advance_idle(SimTime to);

 private:
  HostConfig config_;
  sim::Engine engine_;
  cgroup::Tree tree_;
  sched::FairScheduler scheduler_;
  mem::MemoryManager memory_;
  proc::ProcessTable processes_;
  core::NsMonitor monitor_;
  vfs::VirtualSysfs sysfs_;
  std::unique_ptr<obs::TraceRecorder> trace_;  ///< null when tracing is off
};

}  // namespace arv::container
