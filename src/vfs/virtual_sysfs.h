// VirtualSysfs — the interception layer of §3.2.
//
// Every resource query carries the pid of the asking process. If the process
// is an ordinary host process, the answer comes from the host-wide view
// (total CPUs / total memory); if it is linked to a per-container
// sys_namespace, the query is redirected to that namespace and the
// *effective* resources are returned. The glibc sysconf() names the paper
// cites (_SC_NPROCESSORS_ONLN, _SC_PHYS_PAGES, _SC_PAGESIZE) are shimmed on
// top of the same redirection. Every file renders from live state on each
// read; the only memo is /proc/cpuinfo's text per CPU count, a pure function
// of the count.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "src/cgroup/cgroup.h"
#include "src/core/ns_monitor.h"
#include "src/mem/memory_manager.h"
#include "src/obs/trace_recorder.h"
#include "src/proc/process.h"
#include "src/sched/fair_scheduler.h"
#include "src/vfs/pseudo_fs.h"

namespace arv::vfs {

/// The subset of sysconf(3) names containerized runtimes probe.
enum class Sysconf {
  kNProcessorsOnln,  ///< _SC_NPROCESSORS_ONLN
  kNProcessorsConf,  ///< _SC_NPROCESSORS_CONF
  kPhysPages,        ///< _SC_PHYS_PAGES
  kAvPhysPages,      ///< _SC_AVPHYS_PAGES
  kPageSize,         ///< _SC_PAGESIZE
};

class VirtualSysfs {
 public:
  VirtualSysfs(proc::ProcessTable& processes, cgroup::Tree& tree,
               sched::FairScheduler& scheduler, mem::MemoryManager& memory,
               core::NsMonitor& monitor);

  /// open()+read() of a pseudo-file as process `pid`. Container processes
  /// reading the paths below get their per-container view:
  ///   /sys/devices/system/cpu/online      "0-(E_CPU-1)"
  ///   /proc/meminfo                        MemTotal/MemFree from E_MEM
  ///   /proc/loadavg                        host loadavg (shared kernel)
  std::optional<std::string> read(proc::Pid pid, const std::string& path) const;

  /// Write to a knob file (host-side administration, e.g. docker update).
  bool write(const std::string& path, std::string_view value);

  /// sysconf(3) shim with the same per-process redirection.
  long sysconf(proc::Pid pid, Sysconf name) const;

  /// Expose the raw host fs for listing/tests.
  const PseudoFs& host_fs() const { return fs_; }

  /// (Re)build the /sys/fs/cgroup knob files for a cgroup. Called by the
  /// container runtime on creation; removal happens automatically on the
  /// cgroup-destroyed event.
  void export_cgroup_files(cgroup::CgroupId id);

  /// Register a cluster-level control-plane file (read-only). The cluster
  /// control loops publish their state under /sys/arv/<dir>/ on the control
  /// host's sysfs through this (via cluster::Telemetry); the cluster
  /// publishes its fleet snapshot under /sys/arv/fleet/. Path must
  /// start with "/sys/arv/". The provider runs on every read.
  void register_control_file(const std::string& path, FileProvider provider);

  /// Remove every control file under `prefix` (cluster::Telemetry's
  /// teardown — the providers capture their owner, so they must not outlive
  /// it).
  void remove_control_subtree(const std::string& prefix);

  /// Attach the observability layer: exports /sys/arv/trace/series and
  /// /sys/arv/trace/samples host-wide. The per-container live counters under
  /// /sys/arv/trace/ (e_cpu, e_mem, bounds, update counts) are always
  /// served for processes linked to a sys_namespace, recorder or not.
  void attach_trace(const obs::TraceRecorder* trace);

 private:
  void build_host_files();
  /// The /sys/arv/policy/<container>/ control directory: the writable
  /// policy selector plus one validated file per Params knob.
  void register_policy_files(cgroup::CgroupId id, const std::string& name);
  std::shared_ptr<core::SysNamespace> sys_ns_of(proc::Pid pid) const;
  std::string meminfo_for(Bytes total, Bytes free) const;
  /// /proc/cpuinfo rendered for `cpus` visible processors. The text is a pure
  /// function of the count, so it is memoized — containers re-reading cpuinfo
  /// between effective-view changes (and hosts, ever) hit the cache.
  const std::string& cpuinfo_cached(int cpus) const;
  /// Value of one /sys/arv/trace/<counter> file for a container namespace.
  std::optional<std::int64_t> trace_counter_for(const core::SysNamespace& ns,
                                                const std::string& counter) const;

  proc::ProcessTable& processes_;
  cgroup::Tree& tree_;
  sched::FairScheduler& scheduler_;
  mem::MemoryManager& memory_;
  core::NsMonitor& monitor_;
  const obs::TraceRecorder* trace_ = nullptr;  ///< not owned; may be null
  PseudoFs fs_;
  mutable std::map<int, std::string> cpuinfo_cache_;
};

}  // namespace arv::vfs
