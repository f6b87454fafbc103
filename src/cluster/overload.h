// Overload control plane — graceful degradation for the fleet's front door.
//
// The open-loop workload engine (src/load) can offer arbitrarily more load
// than the fleet's effective capacity, and PR 5's per-replica breakers only
// protect a *dead* replica from being hammered. A fleet-wide flash crowd plus
// a failover still produces the classic metastable collapse: queues bloat,
// latency explodes past every deadline, retries multiply offered load, and
// goodput stays collapsed even after the trigger passes. This subsystem is
// the four guards that keep goodput flat past saturation:
//
//   1. AdmissionController — the front door. Every request a RequestRouter
//      generates first passes the criticality gate: tenants map to four
//      classes (critical / normal / batch / best-effort, derived from their
//      SLO declarations), and when the fleet pressure signal crosses
//      hysteresis bands the controller sheds the lowest class first,
//      walking upward one band per step.
//      Pressure = max(queue depth vs a reference depth, windowed p99 vs a
//      reference target) — both from state the serial phase already owns
//      (replica accept queues + the cumulative util::LatencyHistogram, whose
//      round-over-round bucket delta gives an exact per-round p99).
//      Shedding attacks fast (level jumps up the moment a band is crossed)
//      and releases slowly (a level steps down only after `release_rounds`
//      consecutive calm rounds) so the controller cannot flap.
//
//   2. Retry budget — one fleet-wide token bucket refilled as a fraction of
//      *successful* requests (Finagle-style, default 10%). Every retry
//      beyond a request's first attempt spends a token; when the budget is
//      dry the router gives up instead of amplifying. Under total brown-off
//      a small per-round floor re-arms so probing never stops entirely.
//
//   3. Adaptive per-replica concurrency limits — an AIMD limit on each
//      WorkerPoolServer's accept queue, grown additively while the round's
//      observed p50 stays near the trailing minimum and cut multiplicatively
//      when it drifts, so the queue bound tracks what the replica can
//      actually serve. The bounded queue is what turns overload into the
//      fast, local refusals that JSQ and the breakers react to — instead of
//      a 10k-deep queue silently absorbing minutes of doomed work.
//
//   4. Brownout — under sustained pressure the controller flips the fleet
//      into degraded mode: routed requests are served at a fraction of their
//      CPU cost (WebConfig::degraded_cost_permille) and counted as
//      `degraded`, a disposition the SloAccountant books at a configurable
//      partial budget weight.
//
// Determinism: the controller mutates only inside serial phases — its own
// tick() and the routers' route_one() calls (driver injection and router
// ticks are serial-phase components). All arithmetic is integer (the retry
// budget counts milli-tokens), so cluster traces stay byte-identical run to
// run. Telemetry surfaces as admission.* /
// overload.* trace series and /sys/arv/admission/ control files on the
// designated control host.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/router.h"
#include "src/cluster/telemetry.h"
#include "src/sim/engine.h"
#include "src/util/latency_histogram.h"

namespace arv::cluster {

/// Request criticality classes, shed lowest-first under pressure.
enum class Criticality {
  kCritical = 0,    ///< shed only at the highest pressure band
  kNormal = 1,
  kBatch = 2,
  kBestEffort = 3,  ///< first to go
};
constexpr int kCriticalityClasses = 4;

const char* criticality_name(Criticality c);

/// Map a tenant's declared availability objective to a criticality class:
/// three-nines tenants are critical, two-nines normal, 95% batch, anything
/// looser best-effort.
Criticality criticality_for_slo(std::int64_t availability_permille);

struct AdmissionConfig {
  /// Control-loop round length (pressure, shed level, brownout, AIMD).
  SimDuration period = 100 * units::msec;

  // --- fleet pressure signal -------------------------------------------------
  /// Queue pressure reference: total queued requests per live replica that
  /// counts as pressure 1000 permille.
  int queue_ref_depth = 64;
  /// Latency pressure reference: the windowed (per-round) p99 that counts as
  /// pressure 1000 permille.
  SimDuration p99_ref = 250 * units::msec;

  // --- criticality shedding bands --------------------------------------------
  /// Pressure at which shed level 1 engages (best-effort drops).
  std::int64_t shed_enter_permille = 1000;
  /// Additional pressure per further level (batch, normal, critical).
  std::int64_t shed_step_permille = 500;
  /// A level disengages once pressure sits this far below its entry band.
  std::int64_t shed_exit_margin_permille = 200;
  /// Consecutive calm rounds before a level steps down (slow release).
  int release_rounds = 3;

  // --- brownout --------------------------------------------------------------
  /// Pressure that arms brownout (after `brownout_rounds` sustained rounds).
  std::int64_t brownout_enter_permille = 700;
  /// Pressure below which brownout disarms (again sustained).
  std::int64_t brownout_exit_permille = 400;
  int brownout_rounds = 3;

  // --- fleet-wide retry budget -----------------------------------------------
  /// Milli-tokens deposited per successful request (100 = 10% of successes
  /// may be retries).
  std::int64_t retry_budget_permille = 100;
  /// Budget cap, in whole tokens (bounds the stored burst of retries).
  std::int64_t retry_budget_cap = 100;
  /// Per-round re-arm floor, in whole tokens: even with zero successes this
  /// many retries per round stay possible, so the fleet keeps probing.
  std::int64_t retry_budget_floor = 2;

  // --- adaptive per-replica concurrency limits -------------------------------
  bool adaptive_limits = true;
  /// First limit applied to a replica (then AIMD takes over).
  int initial_limit = 64;
  int min_limit = 4;
  /// Additive increase per calm round.
  int limit_increase = 4;
  /// Multiplicative decrease on a congested round (limit *= this / 1000).
  std::int64_t limit_decrease_permille = 700;
  /// A round is calm while its p50 <= trailing-min p50 * this / 1000.
  std::int64_t latency_tolerance_permille = 2000;
  /// Rounds of trailing p50 minima kept as the baseline.
  int min_window_rounds = 30;

  /// Copy with every out-of-range knob clamped to its nearest legal value —
  /// same contract as RouterConfig::validated(), applied by the constructor.
  AdmissionConfig validated() const;
};

class AdmissionController : public sim::TickComponent {
 public:
  explicit AdmissionController(Cluster& cluster, AdmissionConfig config = {});
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Enroll one tenant (= one RequestRouter) under the front door. Attaches
  /// this controller to the router and returns the tenant's slot. Tenants
  /// registered earlier are considered first each round — registration order
  /// is part of the deterministic contract.
  int register_tenant(const std::string& name, RequestRouter& router,
                      Criticality criticality = Criticality::kNormal);

  /// Re-classify a tenant (declare_slo upgrades criticality post-hoc).
  void set_criticality(const std::string& name, Criticality criticality);

  // --- router-facing gates (serial phase only) -------------------------------
  /// Admission verdict for one request of tenant `slot`.
  bool admit(int slot);
  /// Spend one retry token; false = budget dry, give up.
  bool allow_retry();
  /// A request was routed successfully: refill the retry budget.
  void on_success();
  bool brownout() const { return brownout_; }

  // --- sim::TickComponent ----------------------------------------------------
  void tick(SimTime now, SimDuration dt) override;
  std::string name() const override { return "cluster.admission"; }
  SimDuration tick_period() const override { return config_.period; }

  // --- telemetry -------------------------------------------------------------
  std::int64_t pressure_permille() const { return pressure_; }
  int shed_level() const { return shed_level_; }
  /// True when class `c` is currently being shed at the front door.
  bool shedding(Criticality c) const {
    return static_cast<int>(c) >= kCriticalityClasses - shed_level_;
  }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t retries_allowed() const { return retries_allowed_; }
  std::uint64_t retries_denied() const { return retries_denied_; }
  std::int64_t retry_tokens_milli() const { return retry_tokens_milli_; }
  std::uint64_t brownout_entries() const { return brownout_entries_; }
  /// Sum of the AIMD queue limits applied to live replicas last round.
  std::int64_t queue_limit_total() const { return queue_limit_total_; }
  int tenant_count() const { return static_cast<int>(tenants_.size()); }
  Criticality tenant_criticality(const std::string& name) const;
  std::uint64_t tenant_admitted(const std::string& name) const;
  std::uint64_t tenant_rejected(const std::string& name) const;

  const AdmissionConfig& config() const { return config_; }

 private:
  struct Tenant {
    std::string name;
    RequestRouter* router = nullptr;
    Criticality criticality = Criticality::kNormal;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    // Round snapshots served by this tenant's control files.
    std::uint64_t snap_admitted = 0;
    std::uint64_t snap_rejected = 0;
  };

  /// AIMD state for one replica pod.
  struct LimitState {
    util::LatencyHistogram prev;  ///< last round's cumulative snapshot
    std::deque<std::int64_t> window;  ///< trailing round-p50 minim window
    int limit = 0;                ///< 0 = not yet initialised
  };

  Tenant* find(const std::string& name);
  const Tenant* find(const std::string& name) const;
  void update_pressure(SimTime now);
  void update_shed_level();
  void update_brownout();
  void update_limits();

  Cluster& cluster_;
  AdmissionConfig config_;
  /// Deque: register_tenant must never move an enrolled tenant (control-file
  /// lambdas capture its address, routers cache its slot).
  std::deque<Tenant> tenants_;
  std::unordered_map<int, LimitState> limits_;  ///< by pod id
  util::LatencyHistogram fleet_prev_;  ///< last round's fleet-wide snapshot

  std::int64_t pressure_ = 0;
  std::int64_t windowed_p99_ = 0;
  int shed_level_ = 0;
  int calm_rounds_ = 0;
  bool brownout_ = false;
  int brownout_streak_ = 0;
  std::int64_t retry_tokens_milli_ = 0;
  std::int64_t queue_limit_total_ = 0;

  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t retries_allowed_ = 0;
  std::uint64_t retries_denied_ = 0;
  std::uint64_t brownout_entries_ = 0;
  std::uint64_t shed_raises_ = 0;

  /// Round snapshot served by the /sys/arv/admission/ files: a read between
  /// rounds sees the last completed round, never live mid-round counters.
  struct Snapshot {
    std::int64_t pressure = 0;
    int shed_level = 0;
    bool brownout = false;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t retries_denied = 0;
    std::int64_t retry_tokens_milli = 0;
    std::int64_t queue_limit_total = 0;
  };
  Snapshot snap_;
  Telemetry telemetry_;  ///< /sys/arv/admission/ and its <tenant>/ files
};

}  // namespace arv::cluster
