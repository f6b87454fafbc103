// Process and namespace model.
//
// A deliberately small task_struct analogue: enough to reproduce the
// container-lifetime problem the paper solves in §3.2. Containers are
// ephemeral — the init process that creates the per-container namespaces
// exec()s the user command and dies, so a kernel-side updater would lose its
// handle to the sys_namespace. The paper's fix, reproduced here verbatim in
// ProcessTable::execve(): when a task exec()s and the owning init of a
// namespace is TASK_DEAD, ownership transfers to the exec()ing task, which
// becomes the container's new init.
//
// Cost. The table keeps every task ever forked, dead ones included, so that
// exists(), get() and namespace_of() keep answering for pids a caller still
// holds. Nothing else walks that history: a live counter answers
// live_count(), each cgroup's live member pids and each task's live children
// are kept in ascending pid order, and fork(), set_cgroup() and exit() update
// them. So tasks_in_cgroup() and children_of() cost the size of their
// answer, and exit() costs its cgroup's and its parent's lists, plus host
// init's list when it has live children to hand over — not the number of
// tasks the host has ever forked. A cgroup's list is dropped when it empties, so the
// index holds only cgroups with a live member.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cgroup/cgroup.h"
#include "src/util/types.h"

namespace arv::proc {

using Pid = std::int32_t;
inline constexpr Pid kHostInit = 1;

/// Base class for all namespace objects. Each instance tracks its owning
/// task — the paper's sys_namespace needs a live owner so the kernel can
/// find and update it from outside the container.
class Namespace {
 public:
  enum class Kind { kPid, kMount, kNet, kUts, kUser, kSys };

  explicit Namespace(Kind kind) : kind_(kind) {}
  virtual ~Namespace() = default;
  Namespace(const Namespace&) = delete;
  Namespace& operator=(const Namespace&) = delete;

  Kind kind() const { return kind_; }
  Pid owner() const { return owner_; }
  void set_owner(Pid pid) { owner_ = pid; }

 private:
  Kind kind_;
  Pid owner_ = kHostInit;
};

/// PID namespace: maps host pids to per-container virtual pids starting at 1.
class PidNamespace final : public Namespace {
 public:
  PidNamespace() : Namespace(Kind::kPid) {}

  /// Register a host pid; assigns the next virtual pid (init gets vpid 1).
  Pid assign_vpid(Pid host_pid);
  void remove(Pid host_pid);

  /// Virtual pid for a host pid, or -1 if not a member.
  Pid vpid_of(Pid host_pid) const;
  /// Host pid for a virtual pid, or -1.
  Pid host_of(Pid vpid) const;
  std::size_t size() const { return host_to_vpid_.size(); }

 private:
  Pid next_vpid_ = 1;
  std::map<Pid, Pid> host_to_vpid_;
  std::map<Pid, Pid> vpid_to_host_;
};

enum class TaskState { kRunning, kDead };

struct Task {
  Pid pid = -1;
  Pid parent = -1;
  std::string comm = "init";
  TaskState state = TaskState::kRunning;
  cgroup::CgroupId cgroup = cgroup::kRootCgroup;
  /// Namespaces by kind; tasks share instances via shared_ptr, exactly like
  /// the kernel's reference-counted nsproxy.
  std::map<Namespace::Kind, std::shared_ptr<Namespace>> namespaces;
};

class ProcessTable {
 public:
  /// Creates the host init task (pid 1) in the root namespaces.
  ProcessTable();

  /// Fork: child inherits parent's namespaces, cgroup, and comm. If the
  /// parent is in a PID namespace, the child is registered there too.
  Pid fork(Pid parent);

  /// Exec: replaces the task image (renames comm) and applies the paper's
  /// ownership-transfer rule — any namespace of this task whose owner is
  /// dead (or unknown) becomes owned by this task.
  void execve(Pid pid, const std::string& comm);

  /// Exit: marks the task dead, removes it from its PID namespace, and
  /// reparents its live children to the host init.
  void exit(Pid pid);

  bool alive(Pid pid) const;
  bool exists(Pid pid) const;
  const Task& get(Pid pid) const;

  void set_cgroup(Pid pid, cgroup::CgroupId id);

  /// unshare()-style: give the task a new namespace instance of its kind,
  /// owned by the task. For PID namespaces the task becomes vpid 1.
  void set_namespace(Pid pid, std::shared_ptr<Namespace> ns);

  /// The task's namespace of `kind`, or nullptr if it only has the initial
  /// (host) namespaces for that kind.
  std::shared_ptr<Namespace> namespace_of(Pid pid, Namespace::Kind kind) const;

  /// A task is "in a container" when it has a private sys namespace — the
  /// predicate the virtual sysfs uses to decide whether to redirect queries.
  bool in_container(Pid pid) const;

  /// Live tasks in cgroup `id`, ascending pid.
  std::vector<Pid> tasks_in_cgroup(cgroup::CgroupId id) const;
  /// Live children of `pid`, ascending pid (host init is not its own child).
  std::vector<Pid> children_of(Pid pid) const;
  std::size_t live_count() const { return live_; }

 private:
  Task& get_mutable(Pid pid);

  Pid next_pid_ = kHostInit;
  std::map<Pid, Task> tasks_;
  std::size_t live_ = 0;
  /// Live member pids per cgroup, ascending; no entry for an empty cgroup.
  std::unordered_map<cgroup::CgroupId, std::vector<Pid>> members_;
  /// Live children per task, ascending; no entry for a childless task.
  std::unordered_map<Pid, std::vector<Pid>> children_;
};

}  // namespace arv::proc
