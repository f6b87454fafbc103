// Telemetry — everything one cluster control loop publishes, and its owner.
//
// A serial-phase component publishes its state twice: as series on the
// cluster trace (when tracing is on) and as read-only files under its own
// /sys/arv/<dir>/ on the control host's sysfs (kControlHost). A component
// holds one Telemetry member and registers both through it. The member owns
// the publication:
//   - one owner per directory: constructing a second Telemetry over a
//     directory that already holds control files is an ARV_ASSERT failure
//     (two owners would silently serve and unmount each other's files);
//   - teardown: the destructor removes the directory and retires the
//     series, so no provider or probe outlives the component it captured.
// Directory names come from code (component kinds, service and tenant
// names), never from outside input, so a clash is a programming error.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/obs/trace_recorder.h"
#include "src/vfs/pseudo_fs.h"

namespace arv::cluster {

class Telemetry {
 public:
  /// `dir` is the control directory relative to /sys/arv/ ("vpa",
  /// "autoscale/web"); empty for a component that only traces.
  explicit Telemetry(Cluster& cluster, std::string dir = {});
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // --- cluster trace series (no-ops when tracing is off) --------------------
  void gauge(std::string name, std::string scope, obs::Probe probe);
  void counter(std::string name, std::string scope, obs::Probe probe);
  void counter(std::string name, std::string scope,
               const std::uint64_t& value);

  // --- control files under /sys/arv/<dir>/ on the control host ---------------
  /// `name` is relative to the directory ("rewrites", "<tenant>/admitted").
  /// The provider runs on every read.
  void file(const std::string& name, vfs::FileProvider provider);
  /// A file rendering one integer as "<value>\n".
  template <std::integral T>
  void file(const std::string& name, const T& value) {
    file(name, [&value] { return std::to_string(value) + "\n"; });
  }

 private:
  /// The control host's sysfs, or nullptr while the cluster has no such
  /// host (components may be built before any host is added).
  vfs::VirtualSysfs* control_sysfs() const;

  Cluster& cluster_;
  std::string prefix_;  ///< "/sys/arv/<dir>/", or empty
  std::vector<obs::SeriesHandle> series_;
};

}  // namespace arv::cluster
