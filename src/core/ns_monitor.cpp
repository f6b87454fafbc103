#include "src/core/ns_monitor.h"

#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::core {

NsMonitor::NsMonitor(const sim::Engine& engine, cgroup::Tree& tree,
                     sched::FairScheduler& scheduler, mem::MemoryManager& memory)
    : engine_(engine), tree_(tree), scheduler_(scheduler), memory_(memory) {
  // The paper's kernel hook: cgroups invokes ns_monitor when a control
  // group with a sys_namespace changes.
  tree_.subscribe([this](const cgroup::Event& event) { on_cgroup_event(event); });
  // Baseline for per-round slack deltas. A monitor attached to a host that
  // already accumulated idle time must not read that history as "the host
  // had slack during my first window".
  last_slack_ = scheduler_.total_slack();
}

void NsMonitor::register_ns(const std::shared_ptr<SysNamespace>& ns) {
  ARV_ASSERT(ns != nullptr);
  const cgroup::CgroupId id = ns->cgroup();
  ARV_ASSERT_MSG(namespaces_.find(id) == namespaces_.end(),
                 "cgroup already has a sys_namespace");
  Tracked tracked;
  tracked.ns = ns;
  tracked.last_usage = scheduler_.total_usage(id);
  // First observation window opens at registration, not at t=0: without the
  // stamp a late-started container's first window spans the whole run so
  // far, diluting utilization below the Algorithm 1 grow threshold.
  tracked.last_update = engine_.now();
  auto [it, inserted] = namespaces_.emplace(id, std::move(tracked));
  ARV_ASSERT(inserted);
  ns->refresh_cpu_bounds(tree_);
  ns->refresh_mem_limits(tree_, memory_.total_ram());
  if (trace_ != nullptr) {
    register_ns_trace(it->second);
  }
}

void NsMonitor::unregister_ns(cgroup::CgroupId id) {
  const auto it = namespaces_.find(id);
  if (it == namespaces_.end()) {
    return;
  }
  if (trace_ != nullptr) {
    for (const obs::SeriesHandle handle : it->second.trace_handles) {
      trace_->retire(handle);
    }
  }
  namespaces_.erase(it);
}

void NsMonitor::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ == nullptr) {
    return;
  }
  trace_->add_counter("core.update_rounds", "", [this] {
    return static_cast<std::int64_t>(update_rounds_);
  });
  for (auto& [id, tracked] : namespaces_) {
    register_ns_trace(tracked);
  }
}

void NsMonitor::register_ns_trace(Tracked& tracked) {
  // The probes hold their own shared_ptr: a namespace whose container dies
  // keeps answering until its series is retired in unregister_ns.
  const std::shared_ptr<SysNamespace> ns = tracked.ns;
  const std::string scope = tree_.exists(ns->cgroup())
                                ? tree_.get(ns->cgroup()).name()
                                : "cgroup" + std::to_string(ns->cgroup());
  auto& handles = tracked.trace_handles;
  handles.push_back(trace_->add_gauge(
      "e_cpu", scope, [ns] { return ns->effective_cpus(); }));
  handles.push_back(
      trace_->add_gauge("e_mem", scope, [ns] { return ns->effective_memory(); }));
  handles.push_back(trace_->add_gauge(
      "cpu_lower", scope, [ns] { return ns->cpu_bounds().lower; }));
  handles.push_back(trace_->add_gauge(
      "cpu_upper", scope, [ns] { return ns->cpu_bounds().upper; }));
  handles.push_back(trace_->add_gauge(
      "mem_soft", scope, [ns] { return ns->mem_soft_limit(); }));
  handles.push_back(trace_->add_gauge(
      "mem_hard", scope, [ns] { return ns->mem_hard_limit(); }));
  handles.push_back(trace_->add_counter("cpu_updates", scope, [ns] {
    return static_cast<std::int64_t>(ns->cpu_updates());
  }));
  handles.push_back(trace_->add_counter("mem_updates", scope, [ns] {
    return static_cast<std::int64_t>(ns->mem_updates());
  }));
}

std::vector<std::shared_ptr<SysNamespace>> NsMonitor::views() const {
  std::vector<std::shared_ptr<SysNamespace>> out;
  out.reserve(namespaces_.size());
  for (const auto& [id, tracked] : namespaces_) {
    out.push_back(tracked.ns);
  }
  return out;
}

std::shared_ptr<SysNamespace> NsMonitor::lookup(cgroup::CgroupId id) const {
  const auto it = namespaces_.find(id);
  return it == namespaces_.end() ? nullptr : it->second.ns;
}

void NsMonitor::on_cgroup_event(const cgroup::Event& event) {
  // Per-event work is O(1): refresh only the namespace whose cgroup
  // changed. Any event that can move the global share denominator marks the
  // share-fraction bounds dirty; the O(registered) ripple to every peer is
  // coalesced into one pass at the next update round.
  switch (event.kind) {
    case cgroup::EventKind::kDestroyed:
      unregister_ns(event.id);
      bounds_dirty_ = true;
      break;
    case cgroup::EventKind::kCreated:
      bounds_dirty_ = true;
      break;
    case cgroup::EventKind::kCpuChanged: {
      const auto it = namespaces_.find(event.id);
      if (it != namespaces_.end()) {
        it->second.ns->refresh_cpu_bounds(tree_);
      }
      bounds_dirty_ = true;
      break;
    }
    case cgroup::EventKind::kMemChanged: {
      const auto it = namespaces_.find(event.id);
      if (it != namespaces_.end()) {
        it->second.ns->refresh_mem_limits(tree_, memory_.total_ram());
      }
      break;
    }
  }
}

void NsMonitor::update_all(SimTime now) {
  if (bounds_dirty_) {
    // The coalesced share-fraction refresh: one pass over the registered
    // namespaces regardless of how many cgroup events landed since the last
    // round. Runs before the observations so this round's grow/shrink
    // decisions see current bounds — exactly what per-event refresh gave.
    for (auto& [id, tracked] : namespaces_) {
      tracked.ns->refresh_cpu_bounds(tree_);
    }
    bounds_dirty_ = false;
  }
  ++update_rounds_;
  const CpuTime slack_now = scheduler_.total_slack();
  const bool host_has_slack = slack_now > last_slack_;
  last_slack_ = slack_now;

  for (auto& [id, tracked] : namespaces_) {
    const CpuTime usage_now = scheduler_.total_usage(id);
    const SimDuration window = now - tracked.last_update;
    if (window > 0) {
      CpuObservation cpu_obs;
      cpu_obs.usage = usage_now - tracked.last_usage;
      cpu_obs.window = window;
      cpu_obs.host_has_slack = host_has_slack;
      tracked.ns->update_cpu(cpu_obs);
    }
    tracked.last_usage = usage_now;
    tracked.last_update = now;

    MemObservation mem_obs;
    mem_obs.free = memory_.free_memory();
    mem_obs.usage = memory_.usage(id);
    mem_obs.kswapd_active = memory_.kswapd_active();
    mem_obs.low_mark = memory_.watermarks().low;
    mem_obs.high_mark = memory_.watermarks().high;
    tracked.ns->update_mem(mem_obs);
  }
}

void NsMonitor::tick(SimTime now, SimDuration /*dt*/) {
  // The engine dispatches us once per tick_period() — the CFS scheduling
  // period, re-read after every firing (§3.2: "its update interval is set
  // to the scheduling period in Linux, during which all tasks are
  // guaranteed to run at least once").
  if (stalled_) {
    ++stalled_rounds_;
    return;
  }
  update_all(now);
}

}  // namespace arv::core
