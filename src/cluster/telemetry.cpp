#include "src/cluster/telemetry.h"

#include <utility>

#include "src/util/assert.h"
#include "src/vfs/virtual_sysfs.h"

namespace arv::cluster {

Telemetry::Telemetry(Cluster& cluster, std::string dir) : cluster_(cluster) {
  if (dir.empty()) {
    return;
  }
  prefix_ = "/sys/arv/" + std::move(dir) + "/";
  if (const vfs::VirtualSysfs* sysfs = control_sysfs()) {
    ARV_ASSERT_MSG(sysfs->host_fs().list(prefix_).empty(),
                   "control directory already has an owner");
  }
}

Telemetry::~Telemetry() {
  if (obs::TraceRecorder* trace = cluster_.trace()) {
    for (const obs::SeriesHandle handle : series_) {
      trace->retire(handle);
    }
  }
  if (vfs::VirtualSysfs* sysfs = control_sysfs(); sysfs && !prefix_.empty()) {
    sysfs->remove_control_subtree(prefix_);
  }
}

vfs::VirtualSysfs* Telemetry::control_sysfs() const {
  return cluster_.host_count() > kControlHost
             ? &cluster_.host(kControlHost).sysfs()
             : nullptr;
}

void Telemetry::gauge(std::string name, std::string scope, obs::Probe probe) {
  if (obs::TraceRecorder* trace = cluster_.trace()) {
    series_.push_back(
        trace->add_gauge(std::move(name), std::move(scope), std::move(probe)));
  }
}

void Telemetry::counter(std::string name, std::string scope,
                        obs::Probe probe) {
  if (obs::TraceRecorder* trace = cluster_.trace()) {
    series_.push_back(trace->add_counter(std::move(name), std::move(scope),
                                         std::move(probe)));
  }
}

void Telemetry::counter(std::string name, std::string scope,
                        const std::uint64_t& value) {
  counter(std::move(name), std::move(scope),
          [&value] { return static_cast<std::int64_t>(value); });
}

void Telemetry::file(const std::string& name, vfs::FileProvider provider) {
  if (vfs::VirtualSysfs* sysfs = control_sysfs()) {
    sysfs->register_control_file(prefix_ + name, std::move(provider));
  }
}

}  // namespace arv::cluster
