#include "src/load/slo.h"

#include <algorithm>

#include "src/container/host.h"
#include "src/util/assert.h"

namespace arv::load {
namespace {

/// Trailing window for the burn rate.
constexpr SimDuration kBurnWindow = 10 * units::sec;

}  // namespace

SloAccountant::SloAccountant(cluster::Cluster& cluster, SloConfig config)
    : cluster_(cluster), config_(config), telemetry_(cluster, "slo") {
  ARV_ASSERT(config_.period > 0);
  ARV_ASSERT(kBurnWindow >= config_.period);
}

void SloAccountant::declare(const std::string& tenant,
                            cluster::RequestRouter& router, SloTarget target) {
  ARV_ASSERT_MSG(find(tenant) == nullptr, "tenant already declared");
  ARV_ASSERT(target.availability_permille > 0 &&
             target.availability_permille <= 1000);
  ARV_ASSERT(target.p99_target > 0);
  tenants_.push_back(Tenant{});
  Tenant& t = tenants_.back();
  t.name = tenant;
  t.router = &router;
  t.target = target;

  const std::string scope = "slo." + tenant;
  telemetry_.gauge("p99_us", scope, [&t] { return t.p99; });
  telemetry_.gauge("availability_permille", scope,
                   [&t] { return t.availability; });
  telemetry_.gauge("budget_remaining_permille", scope,
                   [&t] { return t.budget_remaining; });
  telemetry_.gauge("burn_rate_permille", scope, [&t] { return t.burn_rate; });
  const std::string dir = tenant + "/";
  telemetry_.file(
      dir + "objective",
      [&t] {
        return "availability_permille " +
               std::to_string(t.target.availability_permille) +
               "\np99_target_us " + std::to_string(t.target.p99_target) +
               "\n";
      });
  telemetry_.file(dir + "availability_permille", t.availability);
  telemetry_.file(dir + "p99_us", t.p99);
  telemetry_.file(dir + "budget_remaining_permille", t.budget_remaining);
  telemetry_.file(dir + "burn_rate_permille", t.burn_rate);
  telemetry_.file(dir + "generated", t.generated);
  telemetry_.file(dir + "good", t.good);
}

const SloAccountant::Tenant* SloAccountant::find(
    const std::string& tenant) const {
  for (const Tenant& t : tenants_) {
    if (t.name == tenant) {
      return &t;
    }
  }
  return nullptr;
}

void SloAccountant::refresh(Tenant& t, SimTime now) {
  const std::uint64_t generated = t.router->generated();
  const std::uint64_t good = t.router->routed();
  // Failure mass in milli-failures: every request that was not routed
  // (dropped or unroutable) costs one whole failure.
  const std::int64_t bad_milli =
      static_cast<std::int64_t>(generated - good) * 1000;

  const std::int64_t availability =
      generated == 0
          ? 1000
          : static_cast<std::int64_t>(good) * 1000 /
                static_cast<std::int64_t>(generated);

  // Lifetime error budget: how much of the allowed failure mass is left.
  const std::int64_t allowed_milli =
      (1000 - t.target.availability_permille) *
      static_cast<std::int64_t>(generated);
  std::int64_t remaining = 1000;
  if (allowed_milli > 0) {
    remaining = std::clamp<std::int64_t>(
        (allowed_milli - bad_milli) * 1000 / allowed_milli, 0, 1000);
  } else if (bad_milli > 0) {
    remaining = 0;  // any failure with a zero-tolerance budget
  }

  // Trailing burn rate: bad-vs-allowed over the window, 1000 = at pace.
  t.window.push_back({now, static_cast<std::int64_t>(generated), bad_milli});
  while (t.window.size() > 1 && t.window.front()[0] + kBurnWindow < now) {
    t.window.pop_front();
  }
  const std::int64_t window_generated = t.window.back()[1] - t.window.front()[1];
  const std::int64_t window_bad_milli =
      t.window.back()[2] - t.window.front()[2];
  const std::int64_t window_allowed_milli =
      (1000 - t.target.availability_permille) * window_generated;
  std::int64_t burn = 0;
  if (window_allowed_milli > 0) {
    burn = window_bad_milli * 1000 / window_allowed_milli;
  } else if (window_bad_milli > 0) {
    burn = 1000000;  // zero tolerance, nonzero failures: off the chart
  }

  // p99 over the tenant's aggregate latency distribution (live sinks merged
  // with migration-archived history — the user's view, not one replica's).
  const server::RequestStats agg = t.router->aggregate();
  const std::int64_t p99 =
      agg.latency_hist.count() == 0 ? 0 : agg.latency_hist.percentile(99.0);

  t.generated = generated;
  t.good = good;
  t.availability = availability;
  t.budget_remaining = remaining;
  t.burn_rate = burn;
  if (p99 > static_cast<std::int64_t>(t.target.p99_target)) {
    ++t.violations;  // one per accounting round spent over the objective
  }
  t.p99 = p99;
}

void SloAccountant::tick(SimTime now, SimDuration /*dt*/) {
  for (Tenant& t : tenants_) {
    refresh(t, now);
  }
}

std::int64_t SloAccountant::availability_permille(
    const std::string& tenant) const {
  const Tenant* t = find(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->availability;
}

std::int64_t SloAccountant::p99_us(const std::string& tenant) const {
  const Tenant* t = find(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->p99;
}

std::int64_t SloAccountant::budget_remaining_permille(
    const std::string& tenant) const {
  const Tenant* t = find(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->budget_remaining;
}

std::int64_t SloAccountant::burn_rate_permille(
    const std::string& tenant) const {
  const Tenant* t = find(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->burn_rate;
}

std::uint64_t SloAccountant::p99_violations(const std::string& tenant) const {
  const Tenant* t = find(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->violations;
}

bool SloAccountant::attaining(const std::string& tenant) const {
  const Tenant* t = find(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  return t->availability >= t->target.availability_permille &&
         t->p99 <= static_cast<std::int64_t>(t->target.p99_target);
}

}  // namespace arv::load
