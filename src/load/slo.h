// SloAccountant — per-tenant service-level objective accounting.
//
// Each tenant declares an SLO (availability target + p99 latency target);
// the accountant folds that tenant's router dispositions and latency
// histogram into the SRE error-budget vocabulary:
//
//   availability   good/generated, in permille (good = routed; everything
//                  else — dropped or unroutable — burns budget as one
//                  whole failure).
//   error budget   allowed bad = (1000 - target) * generated (milli-
//                  failures); remaining = 1 - bad/allowed, clamped to
//                  [0, 1000] permille.
//   burn rate      bad-vs-allowed over a trailing window, in permille of the
//                  sustainable rate: 1000 = burning exactly at budget pace,
//                  higher = the budget dies before the day does (the
//                  multi-window alert signal from the SRE workbook).
//   p99            the tenant's aggregate latency histogram percentile
//                  against the declared target.
//
// All arithmetic is integer permille over counters the serial phase already
// maintains, so the accountant sits inside the byte-identical-trace
// contract. Results surface twice: as cluster trace series
// (slo.<tenant>.{p99_us,availability_permille,budget_remaining_permille})
// and as /sys/arv/slo/<tenant>/ control-plane files on the designated
// control host, which serve the last round's numbers.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/router.h"
#include "src/cluster/telemetry.h"
#include "src/sim/engine.h"

namespace arv::load {

struct SloTarget {
  /// Availability objective in permille (999 = 99.9%).
  std::int64_t availability_permille = 999;
  /// Latency objective: the tenant's p99 should stay under this.
  SimDuration p99_target = 250 * units::msec;
};

struct SloConfig {
  /// Accounting-round length.
  SimDuration period = 100 * units::msec;
};

class SloAccountant : public sim::TickComponent {
 public:
  explicit SloAccountant(cluster::Cluster& cluster, SloConfig config = {});

  /// Declare one tenant's objective over the router fronting its replicas.
  /// Registers the tenant's trace series and /sys/arv/slo/<tenant>/ files.
  void declare(const std::string& tenant, cluster::RequestRouter& router,
               SloTarget target = {});

  // --- sim::TickComponent ---------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.slo"; }
  SimDuration tick_period() const override { return config_.period; }

  // --- per-tenant queries (last completed round) ----------------------------
  int tenant_count() const { return static_cast<int>(tenants_.size()); }
  std::int64_t availability_permille(const std::string& tenant) const;
  std::int64_t p99_us(const std::string& tenant) const;
  std::int64_t budget_remaining_permille(const std::string& tenant) const;
  std::int64_t burn_rate_permille(const std::string& tenant) const;
  /// Rounds in which the tenant's p99 exceeded its target, cumulative.
  std::uint64_t p99_violations(const std::string& tenant) const;
  /// True when the tenant currently meets both objectives.
  bool attaining(const std::string& tenant) const;

 private:
  struct Tenant {
    std::string name;
    cluster::RequestRouter* router = nullptr;
    SloTarget target;
    // Last-round snapshot (what queries, series, and files serve).
    std::uint64_t generated = 0;
    std::uint64_t good = 0;
    std::int64_t availability = 1000;  ///< permille
    std::int64_t p99 = 0;              ///< microseconds
    std::int64_t budget_remaining = 1000;
    std::int64_t burn_rate = 0;
    std::uint64_t violations = 0;
    /// Trailing (time, generated, bad_milli) checkpoints for the burn
    /// window; bad is in milli-failures, the unit of the allowed budget.
    std::deque<std::array<std::int64_t, 3>> window;
  };

  const Tenant* find(const std::string& tenant) const;
  void refresh(Tenant& tenant, SimTime now);

  cluster::Cluster& cluster_;
  SloConfig config_;
  /// Deque: declare() must never move an already-registered tenant (its
  /// trace probes and file providers capture references to its fields).
  std::deque<Tenant> tenants_;
  cluster::Telemetry telemetry_;  ///< /sys/arv/slo/<tenant>/
};

}  // namespace arv::load
