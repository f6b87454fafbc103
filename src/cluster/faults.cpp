#include "src/cluster/faults.h"

#include <algorithm>

#include "src/container/host.h"
#include "src/core/ns_monitor.h"
#include "src/mem/memory_manager.h"
#include "src/obs/trace_recorder.h"
#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::cluster {

FaultPlan& FaultPlan::add(FaultEvent event) {
  events.push_back(event);
  return *this;
}

FaultPlan FaultPlan::random(Rng& rng, const ChaosOptions& options,
                            int host_count, int pod_count) {
  ARV_ASSERT(host_count >= 1);
  ARV_ASSERT(options.horizon > 0);
  ARV_ASSERT(options.min_reboot <= options.max_reboot);
  ARV_ASSERT(options.min_hold <= options.max_hold);
  ARV_ASSERT(options.min_pressure_permille <= options.max_pressure_permille);
  FaultPlan plan;
  const auto when = [&] { return rng.uniform_int(0, options.horizon - 1); };
  const auto which_host = [&] {
    return static_cast<int>(rng.uniform_int(0, host_count - 1));
  };
  for (int i = 0; i < options.host_crashes; ++i) {
    FaultEvent event;
    event.kind = FaultEvent::Kind::kHostCrash;
    event.at = when();
    event.host = which_host();
    event.duration = rng.uniform_int(options.min_reboot, options.max_reboot);
    plan.add(event);
  }
  for (int i = 0; i < options.pod_crashes && pod_count > 0; ++i) {
    FaultEvent event;
    event.kind = FaultEvent::Kind::kPodCrash;
    event.at = when();
    event.pod = static_cast<int>(rng.uniform_int(0, pod_count - 1));
    plan.add(event);
  }
  for (int i = 0; i < options.pressure_spikes; ++i) {
    FaultEvent event;
    event.kind = FaultEvent::Kind::kMemoryPressure;
    event.at = when();
    event.host = which_host();
    event.duration = rng.uniform_int(options.min_hold, options.max_hold);
    event.permille = static_cast<int>(rng.uniform_int(
        options.min_pressure_permille, options.max_pressure_permille));
    plan.add(event);
  }
  for (int i = 0; i < options.monitor_stalls; ++i) {
    FaultEvent event;
    event.kind = FaultEvent::Kind::kMonitorStall;
    event.at = when();
    event.host = which_host();
    event.duration = rng.uniform_int(options.min_hold, options.max_hold);
    plan.add(event);
  }
  return plan;
}

FaultInjector::FaultInjector(Cluster& cluster, FaultPlan plan)
    : cluster_(cluster), events_(std::move(plan.events)), telemetry_(cluster) {
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  telemetry_.counter("faults.injected", "", injected_);
  telemetry_.counter("faults.skipped", "", skipped_);
}

bool FaultInjector::done() const {
  return next_event_ == events_.size() && reboot_at_.empty() &&
         pressure_until_.empty() && stall_until_.empty();
}

void FaultInjector::recover(SimTime now) {
  for (auto it = reboot_at_.begin(); it != reboot_at_.end();) {
    if (it->second > now) {
      ++it;
      continue;
    }
    if (!cluster_.host_up(it->first)) {
      cluster_.reboot_host(it->first);
    }
    it = reboot_at_.erase(it);
  }
  for (auto it = pressure_until_.begin(); it != pressure_until_.end();) {
    if (it->second > now) {
      ++it;
      continue;
    }
    cluster_.host(it->first).memory().reserve_host_memory(0);
    it = pressure_until_.erase(it);
  }
  for (auto it = stall_until_.begin(); it != stall_until_.end();) {
    if (it->second > now) {
      ++it;
      continue;
    }
    cluster_.host(it->first).monitor().set_stalled(false);
    it = stall_until_.erase(it);
  }
}

void FaultInjector::fire(const FaultEvent& event, SimTime now) {
  switch (event.kind) {
    case FaultEvent::Kind::kHostCrash: {
      ARV_ASSERT(event.host >= 0 && event.host < cluster_.host_count());
      if (!cluster_.host_up(event.host)) {
        ++skipped_;  // already down
        return;
      }
      cluster_.crash_host(event.host);
      if (event.duration > 0) {
        reboot_at_[event.host] = now + event.duration;
      }
      // The crash wiped the machine: the pressure reservation dies with it
      // (reboot re-clears it too), and a wedged monitor daemon is "fixed"
      // by the reboot. Keep the stall until its scheduled end though — the
      // monitor keeps ticking while the host is down, which is harmless.
      ++injected_;
      break;
    }
    case FaultEvent::Kind::kPodCrash: {
      if (event.pod < 0 || event.pod >= cluster_.pod_count() ||
          !cluster_.pod(event.pod).running()) {
        ++skipped_;  // stopped, in flight, or already failed
        return;
      }
      cluster_.crash_pod(event.pod);
      ++injected_;
      break;
    }
    case FaultEvent::Kind::kMemoryPressure: {
      ARV_ASSERT(event.host >= 0 && event.host < cluster_.host_count());
      if (!cluster_.host_up(event.host)) {
        ++skipped_;  // a down host has no workloads to pressure
        return;
      }
      const Bytes ram = cluster_.host(event.host).ram();
      Bytes amount = event.bytes > 0
                         ? event.bytes
                         : ram * static_cast<Bytes>(event.permille) / 1000;
      amount = std::min(amount, ram);
      cluster_.host(event.host).memory().reserve_host_memory(amount);
      if (event.duration > 0) {
        pressure_until_[event.host] =
            std::max(pressure_until_[event.host], now + event.duration);
      }
      ARV_LOG(kDebug, "faults", "pressure on h%d: %lld bytes", event.host,
              static_cast<long long>(amount));
      ++injected_;
      break;
    }
    case FaultEvent::Kind::kMonitorStall: {
      ARV_ASSERT(event.host >= 0 && event.host < cluster_.host_count());
      cluster_.host(event.host).monitor().set_stalled(true);
      if (event.duration > 0) {
        stall_until_[event.host] =
            std::max(stall_until_[event.host], now + event.duration);
      }
      ++injected_;
      break;
    }
  }
}

void FaultInjector::tick(SimTime now, SimDuration /*dt*/) {
  // Recoveries first: a reboot scheduled for t must not be pre-empted by a
  // same-tick crash event (crash-after-reboot is the interesting order, and
  // it is also the deterministic one: plan events fire after recoveries).
  recover(now);
  while (next_event_ < events_.size() && events_[next_event_].at <= now) {
    fire(events_[next_event_], now);
    ++next_event_;
  }
}

}  // namespace arv::cluster
