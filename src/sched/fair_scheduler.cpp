#include "src/sched/fair_scheduler.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace_recorder.h"
#include "src/util/assert.h"

namespace arv::sched {
namespace {

/// Water-filling convergence: rounds are geometric, so a dozen suffices for
/// sub-microsecond residuals at 1 ms ticks.
constexpr int kMaxRounds = 16;
constexpr double kEpsilonUs = 1e-6;

}  // namespace

FairScheduler::FairScheduler(cgroup::Tree& tree, int online_cpus)
    : tree_(tree), online_cpus_(online_cpus), live_generation_(tree.generation()) {
  ARV_ASSERT(online_cpus > 0 && online_cpus <= CpuSet::kMaxCpus);
  ARV_ASSERT_MSG(online_cpus == tree.online_cpus(),
                 "scheduler and cgroup tree must agree on CPU count");
}

void FairScheduler::attach(cgroup::CgroupId id, Schedulable* consumer) {
  ARV_ASSERT(tree_.exists(id));
  ARV_ASSERT(consumer != nullptr);
  auto [it, inserted] = entities_.try_emplace(id);
  auto& entity = it->second;
  ARV_ASSERT_MSG(entity.consumer == nullptr, "a cgroup has at most one consumer");
  entity.consumer = consumer;
  if (inserted) {
    live_.push_back(LiveEntity{id, &entity, {}, 0, 0.0, {}});
    live_stale_ = true;
  }
}

void FairScheduler::detach(cgroup::CgroupId id, Schedulable* consumer) {
  const auto it = entities_.find(id);
  // Keep the entity: its cumulative stats stay readable after detach.
  if (it != entities_.end() && it->second.consumer == consumer) {
    it->second.consumer = nullptr;
  }
}

bool FairScheduler::attached(cgroup::CgroupId id) const {
  const auto it = entities_.find(id);
  return it != entities_.end() && it->second.consumer != nullptr;
}

const std::vector<FairScheduler::LiveEntity>& FairScheduler::live_set() const {
  if (!live_stale_ && live_generation_ == tree_.generation()) {
    return live_;
  }
  // Cgroup ids are never reused: once its cgroup is destroyed, an entity
  // leaves the live set for good.
  std::erase_if(live_, [this](const LiveEntity& e) { return !tree_.exists(e.id); });
  std::sort(live_.begin(), live_.end(),  // attach() appends out of order
            [](const LiveEntity& a, const LiveEntity& b) { return a.id < b.id; });
  common_ = CpuSet::all(online_cpus_);
  for (LiveEntity& e : live_) {
    e.mask = tree_.effective_cpuset(e.id);
    e.cpus = e.mask.count();
    e.weight = static_cast<double>(tree_.get(e.id).cpu().shares);
    // Nested cgroups inherit the tightest bandwidth cap along their path.
    e.bandwidth = tree_.effective_bandwidth(e.id);
    common_ = common_ & e.mask;
  }
  live_generation_ = tree_.generation();
  live_stale_ = false;
  return live_;
}

void FairScheduler::refill_quota(const LiveEntity& entry, SimTime now) {
  Entity& entity = *entry.entity;
  if (entry.bandwidth.quota_us == kUnlimited) {
    entity.quota_remaining = kUnlimited;
    return;
  }
  if (now >= entity.next_refill) {
    entity.quota_remaining = entry.bandwidth.quota_us;
    // Align the next refill to the period grid, skipping missed periods.
    const SimDuration period = entry.bandwidth.period_us;
    entity.next_refill = now + period - (now % period);
  }
}

bool FairScheduler::reuse_last_fill(SimDuration dt) {
  if (dt != last_fill_dt_ || claims_.size() != last_fill_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < claims_.size(); ++i) {
    const Claim& claim = claims_[i];
    const Filled& filled = last_fill_[i];
    if (claim.demand != filled.demand || claim.weight != filled.weight ||
        *claim.mask != filled.mask) {
      return false;
    }
  }
  for (std::size_t i = 0; i < claims_.size(); ++i) {
    claims_[i].alloc = last_fill_[i].alloc;
  }
  return true;
}

void FairScheduler::water_fill(SimDuration dt) {
  // hungry_ lists, in claim order, exactly the claims with unmet demand above
  // epsilon. Unmet demand only shrinks, so a claim that drops out never comes
  // back, and sums over hungry_ equal sums over all claims in the same order.
  cpu_capacity_.assign(static_cast<std::size_t>(online_cpus_), static_cast<double>(dt));
  hungry_.clear();
  for (std::size_t i = 0; i < claims_.size(); ++i) {
    if (claims_[i].demand - claims_[i].alloc > kEpsilonUs) {
      hungry_.push_back(i);
    }
  }
  // On a common_ CPU every hungry claim takes part. As hungry_ only shrinks,
  // an unchanged size means the same claims in the same order, so the weight
  // sum taken on a common_ CPU at this size (and, at an equal `available`,
  // the offers) is what a fresh computation would give, bit for bit.
  std::size_t summed_size = hungry_.size() + 1;  // no common_ sum taken yet
  double common_sum = 0.0;
  double offered_from = -1.0;  // `available` the stored offers came from
  for (int round = 0; round < kMaxRounds && !hungry_.empty(); ++round) {
    double progress = 0.0;
    for (int cpu = 0; cpu < online_cpus_; ++cpu) {
      double& capacity = cpu_capacity_[static_cast<std::size_t>(cpu)];
      if (capacity <= kEpsilonUs) {
        continue;
      }
      const bool shared = common_.contains(cpu);
      const bool same_hungry = shared && hungry_.size() == summed_size;
      double weight_sum = common_sum;
      if (!same_hungry) {
        weight_sum = 0.0;
        for (const std::size_t i : hungry_) {
          if (shared || claims_[i].mask->contains(cpu)) {
            weight_sum += claims_[i].weight;
          }
        }
        if (shared) {
          common_sum = weight_sum;
          summed_size = hungry_.size();
        }
      }
      if (weight_sum <= 0.0) {
        continue;
      }
      const double available = capacity;
      const bool same_offers = same_hungry && available == offered_from;
      offered_from = shared ? available : -1.0;
      double used = 0.0;
      // The offer depends on the claim only through its weight, so a run of
      // equal-weight claims shares one quotient (exact, not approximate).
      double offer_weight = -1.0;
      double offer = 0.0;
      std::size_t kept = 0;
      for (const std::size_t i : hungry_) {
        Claim& claim = claims_[i];
        if (shared || claim.mask->contains(cpu)) {
          if (!same_offers) {
            if (claim.weight != offer_weight) {
              offer_weight = claim.weight;
              offer = available * claim.weight / weight_sum;
            }
            claim.offer = offer;
          }
          const double take = std::min(claim.offer, claim.demand - claim.alloc);
          claim.alloc += take;
          used += take;
          if (claim.demand - claim.alloc <= kEpsilonUs) {
            continue;  // satisfied: leaves hungry_
          }
        }
        hungry_[kept++] = i;
      }
      hungry_.resize(kept);
      capacity -= used;
      progress += used;
    }
    if (progress <= kEpsilonUs) {
      break;
    }
  }
}

void FairScheduler::tick(SimTime now, SimDuration dt) {
  claims_.clear();
  int runnable_total = 0;

  for (const LiveEntity& entry : live_set()) {
    Entity& entity = *entry.entity;
    refill_quota(entry, now);
    entity.stats.last_tick_grant = 0;
    const Schedulable* const consumer = entity.consumer;
    const int runnable = consumer == nullptr ? 0 : consumer->runnable_threads();
    if (runnable <= 0) {
      continue;
    }
    runnable_total += runnable;
    ARV_ASSERT_MSG(entry.cpus > 0, "effective cpuset must be non-empty");

    const double thread_cap =
        static_cast<double>(std::min(runnable, entry.cpus)) * static_cast<double>(dt);
    double quota_cap = thread_cap;
    if (entity.quota_remaining != kUnlimited) {
      quota_cap = std::min(thread_cap, static_cast<double>(entity.quota_remaining));
    }
    Claim& claim = claims_.emplace_back();
    claim.entity = &entity;
    claim.mask = &entry.mask;
    claim.weight = entry.weight;
    claim.demand = quota_cap;
    claim.throttled = thread_cap - quota_cap;
  }

  nr_running_ = runnable_total;
  loadavg_.add(static_cast<double>(runnable_total));

  // --- per-CPU weighted water-filling, unless the claims repeat -----------
  if (!reuse_last_fill(dt)) {
    water_fill(dt);
    last_fill_dt_ = dt;
    last_fill_.resize(claims_.size());
    for (std::size_t i = 0; i < claims_.size(); ++i) {
      const Claim& claim = claims_[i];
      last_fill_[i] = Filled{*claim.mask, claim.weight, claim.demand, claim.alloc};
    }
  }

  // --- accounting + delivery -----------------------------------------------
  CpuTime granted_total = 0;
  for (const Claim& claim : claims_) {
    Entity& entity = *claim.entity;
    const double credited = claim.alloc + entity.fraction_carry;
    const auto grant = static_cast<CpuTime>(credited);  // floor
    entity.fraction_carry = credited - static_cast<double>(grant);
    granted_total += grant;
    entity.stats.total_usage += grant;
    entity.stats.last_tick_grant = grant;
    entity.stats.throttled_time += static_cast<CpuTime>(std::llround(claim.throttled));
    if (entity.quota_remaining != kUnlimited) {
      entity.quota_remaining = std::max<CpuTime>(0, entity.quota_remaining - grant);
    }

    // The consumer takes the whole grant if it is still attached and
    // runnable: an earlier consume() this tick may have detached it or
    // changed its count.
    Schedulable* const consumer = entity.consumer;
    if (consumer != nullptr && consumer->runnable_threads() > 0) {
      consumer->consume(now, dt, grant);
    }
  }

  const CpuTime capacity_total = static_cast<CpuTime>(online_cpus_) * dt;
  // Each claimant may release up to 1 us of credit banked from earlier
  // under-granted ticks, so the per-tick bound has that much slack; the
  // cumulative bound (tested separately) stays exact.
  ARV_ASSERT_MSG(granted_total <=
                     capacity_total + static_cast<CpuTime>(claims_.size()) + 1,
                 "allocated more CPU time than physically exists");
  last_tick_slack_ = std::max<CpuTime>(0, capacity_total - granted_total);
  total_slack_ += last_tick_slack_;
}

bool FairScheduler::idle() const {
  for (const LiveEntity& entry : live_set()) {
    const Schedulable* const consumer = entry.entity->consumer;
    if (consumer != nullptr && consumer->runnable_threads() > 0) {
      return false;
    }
  }
  return true;
}

void FairScheduler::accrue_idle(SimDuration dt, SimDuration tick_length) {
  ARV_ASSERT_MSG(idle(), "accrue_idle on a scheduler with runnable work");
  ARV_ASSERT(dt > 0 && tick_length > 0 && dt % tick_length == 0);
  for (const LiveEntity& entry : live_set()) {
    entry.entity->stats.last_tick_grant = 0;
  }
  nr_running_ = 0;
  // Sample-by-sample, not pow(decay, n): repeated multiplication is what a
  // tick-by-tick run produces, and traces compare bit-for-bit. A zero
  // average stays +0.0 under decay * 0 + 0, so it needs no replay; priming
  // matches the first add() of an unprimed average.
  if (loadavg_.value() == 0.0) {
    loadavg_.prime(0.0);
  } else {
    const SimDuration ticks = dt / tick_length;
    for (SimDuration i = 0; i < ticks; ++i) {
      loadavg_.add(0.0);
    }
  }
  last_tick_slack_ = static_cast<CpuTime>(online_cpus_) * tick_length;
  total_slack_ += static_cast<CpuTime>(online_cpus_) * dt;
}

CpuTime FairScheduler::total_usage(cgroup::CgroupId id) const {
  const auto it = entities_.find(id);
  return it == entities_.end() ? 0 : it->second.stats.total_usage;
}

CpuTime FairScheduler::throttled_time(cgroup::CgroupId id) const {
  const auto it = entities_.find(id);
  return it == entities_.end() ? 0 : it->second.stats.throttled_time;
}

EntityStats FairScheduler::stats(cgroup::CgroupId id) const {
  const auto it = entities_.find(id);
  return it == entities_.end() ? EntityStats{} : it->second.stats;
}

SimDuration FairScheduler::scheduling_period() const {
  if (nr_running_ <= 8) {
    return 24 * units::msec;
  }
  return static_cast<SimDuration>(nr_running_) * 3 * units::msec;
}

void FairScheduler::set_loadavg_decay(double decay) {
  ARV_ASSERT(decay > 0.0 && decay < 1.0);
  loadavg_ = Ema(decay);
}

void FairScheduler::register_trace(obs::TraceRecorder& trace) const {
  trace.add_counter("sched.slack_total", "", [this] { return total_slack_; });
  trace.add_gauge("sched.slack_tick", "", [this] { return last_tick_slack_; });
  trace.add_gauge("sched.nr_running", "",
                  [this] { return static_cast<std::int64_t>(nr_running_); });
  // Fixed-point milli-loads: traces stay integer-valued end to end.
  trace.add_gauge("sched.loadavg_milli", "", [this] {
    return static_cast<std::int64_t>(loadavg_.value() * 1000.0);
  });
}

}  // namespace arv::sched
