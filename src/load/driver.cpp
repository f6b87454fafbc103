#include "src/load/driver.h"

#include <chrono>

#include "src/util/assert.h"

namespace arv::load {

OpenLoopDriver::OpenLoopDriver(cluster::Cluster& cluster, CompiledTrace trace,
                               DriverConfig config)
    : cluster_(cluster),
      trace_(std::move(trace)),
      config_(config),
      telemetry_(cluster) {
  ARV_ASSERT_MSG(!trace_.tenants.empty(), "empty trace");
  ARV_ASSERT_MSG(trace_.slot % cluster_.config().tick == 0,
                 "trace slot must be a multiple of the cluster tick");
  for (const TenantSchedule& t : trace_.tenants) {
    ARV_ASSERT_MSG(t.arrivals.size() == trace_.tenants.front().arrivals.size(),
                   "tenant schedules must cover the same cycle");
  }
  telemetry_.counter("load.injected", "", [this] {
    return static_cast<std::int64_t>(injected());
  });
  telemetry_.counter("load.cycles", "", cycles_);
}

void OpenLoopDriver::bind(const std::string& tenant,
                          cluster::RequestRouter& router) {
  const TenantSchedule* schedule = trace_.find(tenant);
  ARV_ASSERT_MSG(schedule != nullptr, "trace has no such tenant");
  for (const Binding& b : bindings_) {
    ARV_ASSERT_MSG(b.schedule != schedule, "tenant already bound");
  }
  Binding binding;
  binding.schedule = schedule;
  binding.router = &router;
  // A cost stream per tenant, keyed by the tenant name so rebinding order
  // never changes the costs a tenant's requests draw.
  std::uint64_t key = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : tenant) {
    key = (key ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  binding.cost_rng.reseed(key);
  binding.cost_table.reserve(kCostQuantiles);
  for (std::size_t i = 0; i < kCostQuantiles; ++i) {
    const double u = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(kCostQuantiles);
    binding.cost_table.push_back(det::bounded_pareto_quantile(
        u, schedule->cost_min, schedule->cost_max, schedule->cost_alpha));
  }
  bindings_.push_back(std::move(binding));
  // Capture by index: later bind() calls may reallocate bindings_.
  const std::size_t index = bindings_.size() - 1;
  telemetry_.counter("load.injected", tenant, [this, index] {
    return static_cast<std::int64_t>(bindings_[index].injected);
  });
}

std::uint64_t OpenLoopDriver::injected() const {
  std::uint64_t total = 0;
  for (const Binding& b : bindings_) {
    total += b.injected;
  }
  return total;
}

std::uint64_t OpenLoopDriver::injected(const std::string& tenant) const {
  for (const Binding& b : bindings_) {
    if (b.schedule->tenant == tenant) {
      return b.injected;
    }
  }
  return 0;
}

void OpenLoopDriver::tick(SimTime now, SimDuration dt) {
  // Wall accounting charges only the driver's own bookkeeping; the clock is
  // paused around inject_batch (routing + service are the simulated
  // workload, not generator overhead).
  auto mark = std::chrono::steady_clock::now();
  const auto charge = [this, &mark] {
    const auto t = std::chrono::steady_clock::now();
    wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(t - mark)
                    .count();
    mark = t;
  };
  ARV_ASSERT(dt > 0 && trace_.slot % dt == 0);
  const auto ticks_per_slot = static_cast<std::uint64_t>(trace_.slot / dt);
  const std::uint64_t slots = trace_.tenants.front().arrivals.size();
  const std::uint64_t ticks_per_cycle = slots * ticks_per_slot;
  const std::uint64_t cursor = tick_count_ % ticks_per_cycle;
  ++tick_count_;
  if (!config_.repeat && cycles_ > 0) {
    charge();
    return;  // one pass only; the day is over
  }
  const auto s = static_cast<std::size_t>(cursor / ticks_per_slot);
  const std::uint64_t k = cursor % ticks_per_slot;
  for (Binding& binding : bindings_) {
    const std::uint64_t a = binding.schedule->arrivals[s];
    // Exact spreading: tick k of T gets A(k+1)/T - Ak/T arrivals, which
    // telescopes to exactly A over the slot — no request is ever created
    // or lost by the tick subdivision.
    const std::uint64_t n =
        a * (k + 1) / ticks_per_slot - a * k / ticks_per_slot;
    if (n == 0) {
      continue;
    }
    cost_batch_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto q = static_cast<std::size_t>(binding.cost_rng.uniform_int(
          0, static_cast<std::int64_t>(kCostQuantiles) - 1));
      cost_batch_.push_back(binding.cost_table[q]);
    }
    charge();
    binding.router->inject_batch(now, cost_batch_.data(), cost_batch_.size());
    mark = std::chrono::steady_clock::now();  // injection is off the clock
    binding.injected += n;
  }
  if (cursor + 1 == ticks_per_cycle) {
    ++cycles_;
  }
  charge();
}

}  // namespace arv::load
