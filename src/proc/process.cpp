#include "src/proc/process.h"

#include <algorithm>

#include "src/util/assert.h"

namespace arv::proc {

Pid PidNamespace::assign_vpid(Pid host_pid) {
  ARV_ASSERT_MSG(host_to_vpid_.find(host_pid) == host_to_vpid_.end(),
                 "host pid already in this namespace");
  const Pid vpid = next_vpid_++;
  host_to_vpid_[host_pid] = vpid;
  vpid_to_host_[vpid] = host_pid;
  return vpid;
}

void PidNamespace::remove(Pid host_pid) {
  const auto it = host_to_vpid_.find(host_pid);
  if (it == host_to_vpid_.end()) {
    return;
  }
  vpid_to_host_.erase(it->second);
  host_to_vpid_.erase(it);
}

Pid PidNamespace::vpid_of(Pid host_pid) const {
  const auto it = host_to_vpid_.find(host_pid);
  return it == host_to_vpid_.end() ? -1 : it->second;
}

Pid PidNamespace::host_of(Pid vpid) const {
  const auto it = vpid_to_host_.find(vpid);
  return it == vpid_to_host_.end() ? -1 : it->second;
}

namespace {

// Insert `pid` into an ascending list.
void insert_sorted(std::vector<Pid>& list, Pid pid) {
  list.insert(std::lower_bound(list.begin(), list.end(), pid), pid);
}

// Remove `pid` from the ascending list under `key`, dropping the entry when
// it empties.
template <typename Key>
void erase_sorted(std::unordered_map<Key, std::vector<Pid>>& index, Key key,
                  Pid pid) {
  const auto entry = index.find(key);
  ARV_ASSERT_MSG(entry != index.end(), "pid missing from its index list");
  std::vector<Pid>& list = entry->second;
  const auto it = std::lower_bound(list.begin(), list.end(), pid);
  ARV_ASSERT_MSG(it != list.end() && *it == pid, "pid missing from its index list");
  list.erase(it);
  if (list.empty()) {
    index.erase(entry);
  }
}

}  // namespace

ProcessTable::ProcessTable() {
  Task init;
  init.pid = next_pid_++;
  init.parent = init.pid;
  init.comm = "init";
  members_[init.cgroup].push_back(init.pid);
  tasks_[init.pid] = std::move(init);
  live_ = 1;
}

Pid ProcessTable::fork(Pid parent) {
  ARV_ASSERT_MSG(alive(parent), "cannot fork a dead or unknown task");
  const Task& parent_task = get(parent);
  Task child;
  child.pid = next_pid_++;
  child.parent = parent;
  child.comm = parent_task.comm;
  child.cgroup = parent_task.cgroup;
  child.namespaces = parent_task.namespaces;
  if (auto pid_ns = std::dynamic_pointer_cast<PidNamespace>(
          namespace_of(parent, Namespace::Kind::kPid))) {
    pid_ns->assign_vpid(child.pid);
  }
  // A new pid is the largest ever issued, so appending keeps lists sorted.
  const Pid pid = child.pid;
  members_[child.cgroup].push_back(pid);
  children_[parent].push_back(pid);
  tasks_[pid] = std::move(child);
  ++live_;
  return pid;
}

void ProcessTable::execve(Pid pid, const std::string& comm) {
  ARV_ASSERT_MSG(alive(pid), "cannot exec in a dead task");
  Task& task = get_mutable(pid);
  task.comm = comm;
  // The paper's §3.2 fix: "change the ownership of sys_namespace to the
  // current task when the state of the original init process changes to
  // TASK_DEAD". Applied uniformly to every namespace the task carries.
  for (auto& [kind, ns] : task.namespaces) {
    const Pid owner = ns->owner();
    if (owner == pid || !alive(owner)) {
      ns->set_owner(pid);
    }
  }
}

void ProcessTable::exit(Pid pid) {
  ARV_ASSERT_MSG(pid != kHostInit, "host init does not exit");
  ARV_ASSERT_MSG(alive(pid), "double exit");
  Task& task = get_mutable(pid);
  task.state = TaskState::kDead;
  --live_;
  if (auto pid_ns = std::dynamic_pointer_cast<PidNamespace>(
          namespace_of(pid, Namespace::Kind::kPid))) {
    pid_ns->remove(pid);
  }
  erase_sorted(members_, task.cgroup, pid);
  erase_sorted(children_, task.parent, pid);
  const auto entry = children_.find(pid);
  if (entry == children_.end()) {
    return;
  }
  const std::vector<Pid> orphans = std::move(entry->second);
  children_.erase(entry);
  std::vector<Pid>& adopted = children_[kHostInit];
  const std::size_t before = adopted.size();
  for (const Pid child : orphans) {
    get_mutable(child).parent = kHostInit;
    adopted.push_back(child);
  }
  const auto middle = adopted.begin() + static_cast<std::ptrdiff_t>(before);
  if (before > 0 && *(middle - 1) > *middle) {
    std::inplace_merge(adopted.begin(), middle, adopted.end());
  }
}

bool ProcessTable::alive(Pid pid) const {
  const auto it = tasks_.find(pid);
  return it != tasks_.end() && it->second.state == TaskState::kRunning;
}

bool ProcessTable::exists(Pid pid) const { return tasks_.find(pid) != tasks_.end(); }

const Task& ProcessTable::get(Pid pid) const {
  const auto it = tasks_.find(pid);
  ARV_ASSERT_MSG(it != tasks_.end(), "unknown pid");
  return it->second;
}

Task& ProcessTable::get_mutable(Pid pid) {
  const auto it = tasks_.find(pid);
  ARV_ASSERT_MSG(it != tasks_.end(), "unknown pid");
  return it->second;
}

void ProcessTable::set_cgroup(Pid pid, cgroup::CgroupId id) {
  Task& task = get_mutable(pid);
  if (task.state == TaskState::kRunning && task.cgroup != id) {
    erase_sorted(members_, task.cgroup, pid);
    insert_sorted(members_[id], pid);
  }
  task.cgroup = id;
}

void ProcessTable::set_namespace(Pid pid, std::shared_ptr<Namespace> ns) {
  ARV_ASSERT(ns != nullptr);
  Task& task = get_mutable(pid);
  ns->set_owner(pid);
  if (auto pid_ns = std::dynamic_pointer_cast<PidNamespace>(ns)) {
    pid_ns->assign_vpid(pid);  // the creator becomes vpid 1
  }
  task.namespaces[ns->kind()] = std::move(ns);
}

std::shared_ptr<Namespace> ProcessTable::namespace_of(Pid pid,
                                                      Namespace::Kind kind) const {
  const Task& task = get(pid);
  const auto it = task.namespaces.find(kind);
  return it == task.namespaces.end() ? nullptr : it->second;
}

bool ProcessTable::in_container(Pid pid) const {
  return exists(pid) && namespace_of(pid, Namespace::Kind::kSys) != nullptr;
}

std::vector<Pid> ProcessTable::tasks_in_cgroup(cgroup::CgroupId id) const {
  const auto it = members_.find(id);
  return it == members_.end() ? std::vector<Pid>{} : it->second;
}

std::vector<Pid> ProcessTable::children_of(Pid pid) const {
  const auto it = children_.find(pid);
  return it == children_.end() ? std::vector<Pid>{} : it->second;
}

}  // namespace arv::proc
