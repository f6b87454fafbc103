#include "src/container/container.h"

#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::container {

Container::Container(Host& host, const ContainerConfig& config)
    : host_(host), config_(config) {
  auto& tree = host_.cgroups();
  auto& processes = host_.processes();

  // 1. Create the control group and apply the requested limits.
  cgroup_ = tree.create(config_.name);
  tree.set_cpu_shares(cgroup_, config_.cpu_shares);
  if (config_.cfs_quota_us != kUnlimited) {
    tree.set_cfs_period(cgroup_, config_.cfs_period_us);
    tree.set_cfs_quota(cgroup_, config_.cfs_quota_us);
  }
  if (!config_.cpuset.empty()) {
    tree.set_cpuset(cgroup_, config_.cpuset);
  }
  if (config_.mem_limit != kUnlimited) {
    tree.set_mem_limit(cgroup_, config_.mem_limit);
  }
  if (config_.mem_soft_limit != kUnlimited) {
    tree.set_mem_soft_limit(cgroup_, config_.mem_soft_limit);
  }
  host_.sysfs().export_cgroup_files(cgroup_);

  // 2. §3.2 launch sequence: a bootstrap init sets up the namespaces...
  const proc::Pid bootstrap = processes.fork(proc::kHostInit);
  processes.set_cgroup(bootstrap, cgroup_);
  processes.set_namespace(bootstrap, std::make_shared<proc::PidNamespace>());
  if (config_.enable_resource_view) {
    view_ = std::make_shared<core::SysNamespace>(cgroup_, config_.view_params);
    processes.set_namespace(bootstrap, view_);
    host_.monitor().register_ns(view_);
  }

  // ...forks the workload, exits, and the workload's exec() takes over the
  // namespace ownership (the paper's TASK_DEAD handover).
  init_pid_ = processes.fork(bootstrap);
  processes.exit(bootstrap);
  processes.execve(init_pid_, config_.name + "/init");
  if (view_) {
    ARV_ASSERT_MSG(view_->owner() == init_pid_,
                   "sys_namespace ownership must transfer to the new init");
  }

  // 3. Per-container consumption series, retired again in stop() so a
  // stopped container's columns flatline by recorder guarantee rather than
  // by relying on the accessors keeping per-cgroup accounting forever.
  if ((trace_ = host_.trace()) != nullptr) {
    Host* h = &host_;
    const cgroup::CgroupId cg = cgroup_;
    trace_handles_.push_back(trace_->add_counter(
        "cpu_usage", config_.name,
        [h, cg] { return h->scheduler().total_usage(cg); }));
    trace_handles_.push_back(trace_->add_counter(
        "cpu_throttled", config_.name,
        [h, cg] { return h->scheduler().throttled_time(cg); }));
    trace_handles_.push_back(
        trace_->add_gauge("mem_usage", config_.name,
                          [h, cg] { return h->memory().usage(cg); }));
    trace_handles_.push_back(
        trace_->add_gauge("mem_swapped", config_.name,
                          [h, cg] { return h->memory().swapped(cg); }));
  }
  running_ = true;
}

proc::Pid Container::spawn_process(const std::string& comm) {
  ARV_ASSERT_MSG(running_, "container is stopped");
  const proc::Pid pid = host_.processes().fork(init_pid_);
  host_.processes().execve(pid, comm);
  return pid;
}

void Container::update_cpu_shares(std::int64_t shares) {
  host_.cgroups().set_cpu_shares(cgroup_, shares);
}

void Container::update_cfs_quota(std::int64_t quota_us) {
  host_.cgroups().set_cfs_quota(cgroup_, quota_us);
}

void Container::update_cpuset(const CpuSet& mask) {
  host_.cgroups().set_cpuset(cgroup_, mask);
}

void Container::update_mem_limit(Bytes limit) {
  host_.cgroups().set_mem_limit(cgroup_, limit);
}

void Container::update_mem_soft_limit(Bytes soft) {
  host_.cgroups().set_mem_soft_limit(cgroup_, soft);
}

void Container::stop() {
  if (!running_) {
    return;
  }
  auto& processes = host_.processes();
  for (const proc::Pid pid : processes.tasks_in_cgroup(cgroup_)) {
    processes.exit(pid);
  }
  // Release any memory still charged to the cgroup before destroying it.
  auto& memory = host_.memory();
  const Bytes committed = memory.committed(cgroup_);
  if (committed > 0) {
    memory.uncharge(cgroup_, committed);
  }
  host_.cgroups().destroy(cgroup_);  // fires kDestroyed -> monitor/vfs cleanup
  if (trace_ != nullptr) {
    for (const obs::SeriesHandle handle : trace_handles_) {
      trace_->retire(handle);
    }
    trace_handles_.clear();
  }
  running_ = false;
  ARV_LOG(kDebug, "container", "stopped %s", config_.name.c_str());
}

Container& ContainerRuntime::run(const ContainerConfig& config,
                                 const std::string& command) {
  ContainerConfig named = config;
  if (named.name.empty()) {
    // Appended, not `"c" + std::to_string(...)`: GCC 12 reports a false
    // -Wrestrict on that form in Release builds.
    std::string name = "c";
    name += std::to_string(auto_name_counter_++);
    named.name = std::move(name);
  }
  auto container = std::make_unique<Container>(host_, named);
  host_.processes().execve(container->init_pid(), command);
  containers_.push_back(std::move(container));
  return *containers_.back();
}

Container* ContainerRuntime::find(const std::string& name) {
  for (const auto& container : containers_) {
    if (container->name() == name) {
      return container.get();
    }
  }
  return nullptr;
}

}  // namespace arv::container
