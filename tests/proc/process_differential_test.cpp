// ProcessTable's indexes (live counter, per-cgroup member lists, per-task
// child lists) against a reference copy of the table before them, whose
// queries scan every task ever forked. Seeded sequences of fork, execve,
// exit, set_cgroup and set_namespace, with reparent chains and tasks moved
// into cgroups that already hold higher pids, compare every answer after
// every step, list order included.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/proc/process.h"
#include "src/util/rng.h"

namespace arv::proc {
namespace {

constexpr cgroup::CgroupId kCgroups = 6;

// --- reference table --------------------------------------------------------
//
// The pid/parent/cgroup/state bookkeeping of the table before its indexes:
// exit() reparents by scanning every task, and tasks_in_cgroup(),
// children_of() and live_count() scan every task. Test-only.
class ReferenceTable {
 public:
  struct Entry {
    Pid parent = kHostInit;
    TaskState state = TaskState::kRunning;
    cgroup::CgroupId cgroup = cgroup::kRootCgroup;
  };

  ReferenceTable() { tasks_[kHostInit] = Entry{}; }

  Pid fork(Pid parent) {
    const Pid pid = next_pid_++;
    tasks_[pid] = Entry{parent, TaskState::kRunning, tasks_.at(parent).cgroup};
    return pid;
  }

  void exit(Pid pid) {
    tasks_.at(pid).state = TaskState::kDead;
    for (auto& [other_pid, other] : tasks_) {
      if (other.parent == pid && other.state == TaskState::kRunning) {
        other.parent = kHostInit;
      }
    }
  }

  void set_cgroup(Pid pid, cgroup::CgroupId id) { tasks_.at(pid).cgroup = id; }

  std::vector<Pid> tasks_in_cgroup(cgroup::CgroupId id) const {
    std::vector<Pid> out;
    for (const auto& [pid, task] : tasks_) {
      if (task.cgroup == id && task.state == TaskState::kRunning) {
        out.push_back(pid);
      }
    }
    return out;
  }

  std::vector<Pid> children_of(Pid pid) const {
    std::vector<Pid> out;
    for (const auto& [child_pid, task] : tasks_) {
      if (task.parent == pid && child_pid != pid &&
          task.state == TaskState::kRunning) {
        out.push_back(child_pid);
      }
    }
    return out;
  }

  std::size_t live_count() const {
    std::size_t live = 0;
    for (const auto& [pid, task] : tasks_) {
      live += task.state == TaskState::kRunning ? 1 : 0;
    }
    return live;
  }

  std::vector<Pid> live() const {
    std::vector<Pid> out;
    for (const auto& [pid, task] : tasks_) {
      if (task.state == TaskState::kRunning) {
        out.push_back(pid);
      }
    }
    return out;
  }

  Pid next_pid() const { return next_pid_; }
  const std::map<Pid, Entry>& tasks() const { return tasks_; }

 private:
  Pid next_pid_ = kHostInit + 1;
  std::map<Pid, Entry> tasks_;
};

class SysNs : public Namespace {
 public:
  SysNs() : Namespace(Kind::kSys) {}
};

/// Applies each operation to both tables and compares them.
class Pair {
 public:
  Pid fork(Pid parent) {
    const Pid pid = table.fork(parent);
    EXPECT_EQ(pid, reference.fork(parent));
    return pid;
  }
  void exit(Pid pid) {
    table.exit(pid);
    reference.exit(pid);
  }
  void set_cgroup(Pid pid, cgroup::CgroupId id) {
    table.set_cgroup(pid, id);
    reference.set_cgroup(pid, id);
  }

  /// Every per-task field, every cgroup's member list and the live count;
  /// children_of() for the live tasks plus `extra`, or for every pid ever
  /// issued (and one never issued) when `all_children`.
  void check(const std::vector<Pid>& extra, bool all_children) const {
    ASSERT_EQ(table.live_count(), reference.live_count());
    for (cgroup::CgroupId id = 0; id <= kCgroups; ++id) {
      ASSERT_EQ(table.tasks_in_cgroup(id), reference.tasks_in_cgroup(id))
          << "cgroup " << id;
    }
    for (const auto& [pid, entry] : reference.tasks()) {
      ASSERT_TRUE(table.exists(pid)) << "pid " << pid;
      ASSERT_EQ(table.alive(pid), entry.state == TaskState::kRunning) << "pid " << pid;
      const Task& task = table.get(pid);
      ASSERT_EQ(task.state, entry.state) << "pid " << pid;
      ASSERT_EQ(task.parent, entry.parent) << "pid " << pid;
      ASSERT_EQ(task.cgroup, entry.cgroup) << "pid " << pid;
      if (all_children || entry.state == TaskState::kRunning) {
        ASSERT_EQ(table.children_of(pid), reference.children_of(pid)) << "pid " << pid;
      }
    }
    const Pid unknown = reference.next_pid();
    ASSERT_FALSE(table.exists(unknown));
    ASSERT_FALSE(table.alive(unknown));
    ASSERT_TRUE(table.children_of(unknown).empty());
    for (const Pid pid : extra) {
      ASSERT_EQ(table.children_of(pid), reference.children_of(pid)) << "pid " << pid;
    }
  }

  ProcessTable table;
  ReferenceTable reference;
};

TEST(ProcessTableDifferential, ReparentChainAndMoveBelowHigherPids) {
  Pair pair;
  // A chain 1 -> a -> b -> c -> d; init also holds a later child e.
  const Pid a = pair.fork(kHostInit);
  const Pid b = pair.fork(a);
  const Pid c = pair.fork(b);
  const Pid d = pair.fork(c);
  const Pid e = pair.fork(kHostInit);
  pair.set_cgroup(e, 3);
  pair.set_cgroup(d, 3);  // d < e: must land before e
  pair.set_cgroup(b, 3);
  pair.check({}, true);
  ASSERT_EQ(pair.table.tasks_in_cgroup(3), (std::vector<Pid>{b, d, e}));
  // Orphans are merged into init's children in pid order, between a and e.
  pair.exit(b);
  pair.check({b}, true);
  ASSERT_EQ(pair.table.children_of(kHostInit), (std::vector<Pid>{a, c, e}));
  pair.exit(c);
  pair.check({c}, true);
  ASSERT_EQ(pair.table.children_of(kHostInit), (std::vector<Pid>{a, d, e}));
  ASSERT_EQ(pair.table.get(d).parent, kHostInit);
  // A dead task's cgroup can still be rewritten; it lists nowhere.
  pair.set_cgroup(c, 4);
  pair.exit(d);
  pair.exit(e);
  pair.check({}, true);
  ASSERT_TRUE(pair.table.tasks_in_cgroup(3).empty());
  ASSERT_EQ(pair.table.children_of(kHostInit), (std::vector<Pid>{a}));
  ASSERT_EQ(pair.table.live_count(), 2u);
}

void run_random_ops(std::uint64_t seed) {
  Rng rng(seed);
  Pair pair;
  Pid last_forked = kHostInit;
  constexpr int kSteps = 1000;
  for (int step = 0; step < kSteps; ++step) {
    const std::vector<Pid> live = pair.reference.live();
    const auto pick = [&](const std::vector<Pid>& from) {
      return from[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
    };
    std::vector<Pid> touched;
    const double op = rng.uniform();
    // Keep the population between a handful and ~48 live tasks so exits
    // keep reparenting, and forks keep building chains under recent tasks.
    const double exit_share = live.size() > 48 ? 0.6 : (live.size() < 6 ? 0.0 : 0.25);
    if (op < exit_share) {
      std::vector<Pid> candidates;
      const bool with_children = rng.chance(0.5);
      for (const Pid pid : live) {
        if (pid != kHostInit &&
            (!with_children || !pair.reference.children_of(pid).empty())) {
          candidates.push_back(pid);
        }
      }
      if (candidates.empty()) {
        continue;
      }
      const Pid victim = pick(candidates);
      touched = {victim, pair.table.get(victim).parent};
      pair.exit(victim);
    } else if (op < exit_share + 0.35) {
      const Pid parent = pair.table.alive(last_forked) && rng.chance(0.6)
                             ? last_forked
                             : pick(live);
      last_forked = pair.fork(parent);
      touched = {parent};
    } else if (op < exit_share + 0.55) {
      // Mostly live tasks, sometimes a dead one; half of the moves go into
      // a cgroup that already holds a higher live pid.
      Pid pid = pick(live);
      if (rng.chance(0.1)) {
        pid = static_cast<Pid>(rng.uniform_int(kHostInit, pair.reference.next_pid() - 1));
      }
      auto id = static_cast<cgroup::CgroupId>(rng.uniform_int(0, kCgroups));
      if (rng.chance(0.5)) {
        std::vector<Pid> higher;
        for (const Pid other : live) {
          if (other > pid) {
            higher.push_back(other);
          }
        }
        if (!higher.empty()) {
          id = pair.table.get(pick(higher)).cgroup;
        }
      }
      pair.set_cgroup(pid, id);
    } else if (op < exit_share + 0.65) {
      const Pid pid = pick(live);
      pair.table.execve(pid, "c" + std::to_string(step));
    } else {
      const Pid pid = pick(live);
      if (rng.chance(0.5)) {
        pair.table.set_namespace(pid, std::make_shared<PidNamespace>());
      } else {
        pair.table.set_namespace(pid, std::make_shared<SysNs>());
      }
    }
    SCOPED_TRACE("step " + std::to_string(step));
    pair.check(touched, step % 100 == 99);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  pair.check({}, true);
}

TEST(ProcessTableDifferential, IndexesMatchFullScansUnderRandomOps) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 20190624ULL, 0xc0ffeeULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_ops(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace arv::proc
