#include "src/cgroup/cgroup.h"

#include <algorithm>

#include "src/util/assert.h"

namespace arv::cgroup {

int CpuConfig::quota_cpus(int online) const {
  if (cfs_quota_us == kUnlimited || cfs_quota_us <= 0) {
    return online;
  }
  const auto cpus = ceil_div(cfs_quota_us, cfs_period_us);
  return static_cast<int>(std::min<std::int64_t>(cpus, online));
}

Tree::Tree(int online_cpus) : online_cpus_(online_cpus) {
  ARV_ASSERT(online_cpus > 0 && online_cpus <= CpuSet::kMaxCpus);
  // Slot 0 is the root cgroup; it always exists and is never destroyed.
  slots_.push_back(std::make_unique<Cgroup>(kRootCgroup, "/", kRootCgroup));
}

CgroupId Tree::create(const std::string& name, CgroupId parent) {
  ARV_ASSERT(exists(parent));
  ARV_ASSERT_MSG(find(name, parent) < 0, "sibling cgroup names must be unique");
  const CgroupId id = next_id_++;
  slots_.push_back(std::make_unique<Cgroup>(id, name, parent));
  get_mutable(parent).children_.push_back(id);
  total_shares_ += get(id).cpu().shares;
  notify(EventKind::kCreated, id, name);
  return id;
}

void Tree::destroy(CgroupId id) {
  ARV_ASSERT_MSG(id != kRootCgroup, "cannot destroy the root cgroup");
  ARV_ASSERT(exists(id));
  ARV_ASSERT_MSG(get(id).children().empty(), "destroy children first");
  auto& siblings = get_mutable(get(id).parent()).children_;
  siblings.erase(std::remove(siblings.begin(), siblings.end(), id), siblings.end());
  // Remove the cgroup BEFORE notifying so that listeners recomputing
  // aggregate state (total shares, sibling counts) see the post-destroy
  // world; the name travels with the event for cleanup handlers.
  const std::string name = get(id).name();
  total_shares_ -= get(id).cpu().shares;
  slots_[static_cast<std::size_t>(id)].reset();
  notify(EventKind::kDestroyed, id, name);
}

bool Tree::exists(CgroupId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < slots_.size() &&
         slots_[static_cast<std::size_t>(id)] != nullptr;
}

const Cgroup& Tree::get(CgroupId id) const {
  ARV_ASSERT(exists(id));
  return *slots_[static_cast<std::size_t>(id)];
}

Cgroup& Tree::get_mutable(CgroupId id) {
  ARV_ASSERT(exists(id));
  return *slots_[static_cast<std::size_t>(id)];
}

CgroupId Tree::find(const std::string& name, CgroupId parent) const {
  if (!exists(parent)) {
    return -1;
  }
  for (const CgroupId child : get(parent).children()) {
    if (get(child).name() == name) {
      return child;
    }
  }
  return -1;
}

void Tree::set_cpu_shares(CgroupId id, std::int64_t shares) {
  ARV_ASSERT_MSG(shares >= 2, "kernel clamps cpu.shares to >= 2");
  if (id != kRootCgroup) {
    total_shares_ += shares - get(id).cpu().shares;
  }
  get_mutable(id).cpu_.shares = shares;
  notify(EventKind::kCpuChanged, id, get(id).name());
}

void Tree::set_cfs_quota(CgroupId id, std::int64_t quota_us) {
  ARV_ASSERT_MSG(quota_us == kUnlimited || quota_us > 0, "quota must be positive");
  get_mutable(id).cpu_.cfs_quota_us = quota_us;
  notify(EventKind::kCpuChanged, id, get(id).name());
}

void Tree::set_cfs_period(CgroupId id, SimDuration period_us) {
  ARV_ASSERT_MSG(period_us >= 1000, "kernel requires cfs_period_us >= 1ms");
  get_mutable(id).cpu_.cfs_period_us = period_us;
  notify(EventKind::kCpuChanged, id, get(id).name());
}

void Tree::set_cpuset(CgroupId id, const CpuSet& mask) {
  ARV_ASSERT_MSG(mask.span() <= online_cpus_, "cpuset exceeds online CPUs");
  get_mutable(id).cpu_.cpuset = mask;
  notify(EventKind::kCpuChanged, id, get(id).name());
}

void Tree::set_mem_limit(CgroupId id, Bytes limit) {
  ARV_ASSERT(limit > 0);
  get_mutable(id).mem_.limit_in_bytes = limit;
  notify(EventKind::kMemChanged, id, get(id).name());
}

void Tree::set_mem_soft_limit(CgroupId id, Bytes soft_limit) {
  ARV_ASSERT(soft_limit > 0);
  get_mutable(id).mem_.soft_limit_in_bytes = soft_limit;
  notify(EventKind::kMemChanged, id, get(id).name());
}

CpuSet Tree::effective_cpuset(CgroupId id) const {
  CpuSet mask = CpuSet::all(online_cpus_);
  for (CgroupId cur = id; cur != kRootCgroup; cur = get(cur).parent()) {
    const CpuSet& own = get(cur).cpu().cpuset;
    if (!own.empty()) {
      mask = mask & own;
    }
  }
  return mask;
}

int Tree::effective_quota_cpus(CgroupId id) const {
  int cap = online_cpus_;
  for (CgroupId cur = id; cur != kRootCgroup; cur = get(cur).parent()) {
    cap = std::min(cap, get(cur).cpu().quota_cpus(online_cpus_));
  }
  return cap;
}

Tree::Bandwidth Tree::effective_bandwidth(CgroupId id) const {
  Bandwidth best;
  double best_ratio = std::numeric_limits<double>::infinity();
  for (CgroupId cur = id; cur != kRootCgroup; cur = get(cur).parent()) {
    const auto& cfg = get(cur).cpu();
    if (cfg.cfs_quota_us == kUnlimited) {
      continue;
    }
    const double ratio = static_cast<double>(cfg.cfs_quota_us) /
                         static_cast<double>(cfg.cfs_period_us);
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best.quota_us = cfg.cfs_quota_us;
      best.period_us = cfg.cfs_period_us;
    }
  }
  return best;
}

std::vector<CgroupId> Tree::all_ids() const {
  std::vector<CgroupId> ids;
  for (std::size_t slot = 1; slot < slots_.size(); ++slot) {
    if (slots_[slot] != nullptr) {
      ids.push_back(static_cast<CgroupId>(slot));
    }
  }
  return ids;
}

void Tree::subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }

void Tree::notify(EventKind kind, CgroupId id, const std::string& name) {
  ++generation_;
  const Event event{kind, id, name};
  for (const auto& listener : listeners_) {
    listener(event);
  }
}

}  // namespace arv::cgroup
