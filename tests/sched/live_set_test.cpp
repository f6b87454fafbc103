// FairScheduler's cached live set, reused fill and single-consumer delivery:
// cache invalidation, consumers that change the topology or another
// consumer's runnable count from inside consume(), and a seeded
// differential test against a reference copy of the straightforward tick that
// scans every attached cgroup, re-derives its claim inputs from the tree and
// water-fills on every tick.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sched/fair_scheduler.h"
#include "src/util/rng.h"
#include "tests/testing/fake_consumer.h"

namespace arv::sched {
namespace {

using arv::testing::FakeConsumer;
using namespace arv::units;

constexpr SimDuration kTick = 1 * msec;

// --- reference scheduler ----------------------------------------------------
//
// The scheduler's tick before the live set: every tick scans every entity
// ever attached, skips destroyed cgroups, re-derives cpuset, shares and
// bandwidth from the tree, and water-fills over all claims. Test-only; the
// differential test below holds FairScheduler to it bit for bit.
class ReferenceScheduler {
 public:
  ReferenceScheduler(cgroup::Tree& tree, int online_cpus)
      : tree_(tree), online_cpus_(online_cpus) {}

  void attach(cgroup::CgroupId id, Schedulable* consumer) {
    Entity& entity = entities_[id];
    EXPECT_EQ(entity.consumer, nullptr) << "cgroup " << id << " has a consumer";
    entity.consumer = consumer;
  }

  void detach(cgroup::CgroupId id, Schedulable* consumer) {
    const auto it = entities_.find(id);
    if (it != entities_.end() && it->second.consumer == consumer) {
      it->second.consumer = nullptr;
    }
  }

  bool idle() const {
    for (const auto& [id, entity] : entities_) {
      if (tree_.exists(id) && entity.consumer != nullptr &&
          entity.consumer->runnable_threads() > 0) {
        return false;
      }
    }
    return true;
  }

  void tick(SimTime now, SimDuration dt) {
    struct Claim {
      Entity* entity = nullptr;
      CpuSet mask;
      double weight = 0.0;
      double demand = 0.0;
      double alloc = 0.0;
      double throttled = 0.0;
    };
    constexpr int kMaxRounds = 16;
    constexpr double kEpsilonUs = 1e-6;

    std::vector<Claim> claims;
    int runnable_total = 0;
    for (auto& [id, entity] : entities_) {
      if (!tree_.exists(id)) {
        continue;
      }
      refill_quota(id, entity, now);
      entity.stats.last_tick_grant = 0;
      const int runnable =
          entity.consumer == nullptr ? 0 : entity.consumer->runnable_threads();
      if (runnable <= 0) {
        continue;
      }
      runnable_total += runnable;
      Claim claim;
      claim.entity = &entity;
      claim.mask = tree_.effective_cpuset(id);
      claim.weight = static_cast<double>(tree_.get(id).cpu().shares);
      const double thread_cap =
          static_cast<double>(std::min(runnable, claim.mask.count())) *
          static_cast<double>(dt);
      double quota_cap = thread_cap;
      if (entity.quota_remaining != kUnlimited) {
        quota_cap = std::min(thread_cap, static_cast<double>(entity.quota_remaining));
      }
      claim.demand = quota_cap;
      claim.throttled = thread_cap - quota_cap;
      claims.push_back(claim);
    }
    nr_running_ = runnable_total;
    loadavg_.add(static_cast<double>(runnable_total));

    std::vector<double> cpu_capacity(static_cast<std::size_t>(online_cpus_),
                                     static_cast<double>(dt));
    for (int round = 0; round < kMaxRounds; ++round) {
      double progress = 0.0;
      for (int cpu = 0; cpu < online_cpus_; ++cpu) {
        double& capacity = cpu_capacity[static_cast<std::size_t>(cpu)];
        if (capacity <= kEpsilonUs) {
          continue;
        }
        double weight_sum = 0.0;
        for (const Claim& claim : claims) {
          if (claim.demand - claim.alloc > kEpsilonUs && claim.mask.contains(cpu)) {
            weight_sum += claim.weight;
          }
        }
        if (weight_sum <= 0.0) {
          continue;
        }
        const double available = capacity;
        double used = 0.0;
        for (Claim& claim : claims) {
          const double unmet = claim.demand - claim.alloc;
          if (unmet <= kEpsilonUs || !claim.mask.contains(cpu)) {
            continue;
          }
          const double offer = available * claim.weight / weight_sum;
          const double take = std::min(offer, unmet);
          claim.alloc += take;
          used += take;
        }
        capacity -= used;
        progress += used;
      }
      if (progress <= kEpsilonUs) {
        break;
      }
    }

    CpuTime granted_total = 0;
    for (Claim& claim : claims) {
      Entity& entity = *claim.entity;
      const double credited = claim.alloc + entity.fraction_carry;
      const auto grant = static_cast<CpuTime>(credited);
      entity.fraction_carry = credited - static_cast<double>(grant);
      granted_total += grant;
      entity.stats.total_usage += grant;
      entity.stats.last_tick_grant = grant;
      entity.stats.throttled_time += static_cast<CpuTime>(std::llround(claim.throttled));
      if (entity.quota_remaining != kUnlimited) {
        entity.quota_remaining = std::max<CpuTime>(0, entity.quota_remaining - grant);
      }
      Schedulable* const consumer = entity.consumer;
      if (consumer != nullptr && consumer->runnable_threads() > 0) {
        consumer->consume(now, dt, grant);
      }
    }
    const CpuTime capacity_total = static_cast<CpuTime>(online_cpus_) * dt;
    last_tick_slack_ = std::max<CpuTime>(0, capacity_total - granted_total);
    total_slack_ += last_tick_slack_;
  }

  EntityStats stats(cgroup::CgroupId id) const {
    const auto it = entities_.find(id);
    return it == entities_.end() ? EntityStats{} : it->second.stats;
  }
  CpuTime total_slack() const { return total_slack_; }
  CpuTime last_tick_slack() const { return last_tick_slack_; }
  int nr_running() const { return nr_running_; }
  double loadavg() const { return loadavg_.value(); }

 private:
  struct Entity {
    Schedulable* consumer = nullptr;
    CpuTime quota_remaining = kUnlimited;
    SimTime next_refill = 0;
    double fraction_carry = 0.0;
    EntityStats stats;
  };

  void refill_quota(cgroup::CgroupId id, Entity& entity, SimTime now) {
    const auto bandwidth = tree_.effective_bandwidth(id);
    if (bandwidth.quota_us == kUnlimited) {
      entity.quota_remaining = kUnlimited;
      return;
    }
    if (now >= entity.next_refill) {
      entity.quota_remaining = bandwidth.quota_us;
      const SimDuration period = bandwidth.period_us;
      entity.next_refill = now + period - (now % period);
    }
  }

  cgroup::Tree& tree_;
  int online_cpus_;
  std::map<cgroup::CgroupId, Entity> entities_;
  CpuTime total_slack_ = 0;
  CpuTime last_tick_slack_ = 0;
  int nr_running_ = 0;
  Ema loadavg_{0.99993};
};

/// A consumer that records the grant of the current tick (0 if not called)
/// and appends its tag to a delivery log, so call order is compared too.
class RecordingConsumer : public Schedulable {
 public:
  int runnable_threads() const override { return threads; }
  void consume(SimTime /*now*/, SimDuration /*dt*/, CpuTime grant) override {
    last += grant;
    log->push_back(tag);
  }
  int threads = 0;
  CpuTime last = 0;
  std::vector<std::size_t>* log = nullptr;
  std::size_t tag = 0;
};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// --- seeded differential test -----------------------------------------------

struct Churn {
  std::uint64_t seed;
  int cpus;
  /// Draw cpusets from a few shapes (all CPUs for most cgroups, half of
  /// them, one pinned CPU) and favour tight quotas and 1-2-thread claims.
  /// CPUs then share their cgroups, so the fill's reuse of weight sums and
  /// offers runs, and claims drop out partway through a round.
  bool shaped = false;
  /// A fixed population instead of churn: stretches of ticks where nothing
  /// changes, so the claims repeat and the last fill is reused, and ticks
  /// that change exactly one input of the fill's key.
  bool steady = false;
};

void PrintTo(const Churn& churn, std::ostream* os) {
  *os << "seed " << churn.seed << ", " << churn.cpus << " CPUs"
      << (churn.shaped ? ", shaped" : "") << (churn.steady ? ", steady" : "");
}

class LiveSetDifferential : public ::testing::TestWithParam<Churn> {};

TEST_P(LiveSetDifferential, BitIdenticalToReferenceUnderRandomChurn) {
  const Churn param = GetParam();
  const int cpus = param.cpus;
  Rng rng(param.seed);
  cgroup::Tree tree(cpus);
  FairScheduler sched(tree, cpus);
  ReferenceScheduler ref(tree, cpus);

  // Consumer pairs: [0] feeds `sched`, [1] feeds `ref`; the loop below keeps
  // their thread counts equal.
  struct Pair {
    RecordingConsumer live[2];
    cgroup::CgroupId cgroup = -1;  // -1 while detached
  };
  std::vector<std::unique_ptr<Pair>> pairs;
  std::vector<std::size_t> delivered[2];  // consume() order, per scheduler
  std::vector<cgroup::CgroupId> ever;  // every cgroup created, for stats checks
  int names = 0;

  const auto pick = [&](const std::vector<cgroup::CgroupId>& ids) {
    return ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
  };
  // Every mask keeps CPU 0, so nested intersections are never empty.
  const auto random_mask = [&] {
    if (param.shaped) {
      const auto shape = rng.uniform_int(0, 9);
      return CpuSet::first_n(shape < 7 ? cpus : shape < 9 ? std::max(1, cpus / 2) : 1);
    }
    CpuSet mask;
    mask.set(0);
    for (int cpu = 1; cpu < cpus; ++cpu) {
      if (rng.chance(0.5)) {
        mask.set(cpu);
      }
    }
    return mask;
  };
  const auto depth = [&](cgroup::CgroupId id) {
    int d = 0;
    for (auto cur = id; cur != cgroup::kRootCgroup; cur = tree.get(cur).parent()) {
      ++d;
    }
    return d;
  };
  const auto random_threads = [&] {
    const int most = param.shaped && rng.chance(0.8) ? 2 : 2 * cpus;
    return static_cast<int>(rng.uniform_int(0, most));
  };
  const auto new_pair = [&] {
    pairs.push_back(std::make_unique<Pair>());
    Pair* pair = pairs.back().get();
    for (int side = 0; side < 2; ++side) {
      pair->live[side].log = &delivered[side];
      pair->live[side].tag = pairs.size() - 1;
    }
    return pair;
  };
  const auto attach = [&](Pair* pair, cgroup::CgroupId id) {
    pair->cgroup = id;
    sched.attach(id, &pair->live[0]);
    ref.attach(id, &pair->live[1]);
  };

  // Churn: cgroups come and go, nest, change knobs and gain and lose their
  // consumer while thread counts drift.
  const auto churn = [&](int t) {
    const auto ids = tree.all_ids();
    // Create: top level or nested up to depth 3.
    if (ids.size() < 6 || rng.chance(ids.size() < 30 ? 0.08 : 0.02)) {
      cgroup::CgroupId parent = cgroup::kRootCgroup;
      if (!ids.empty() && rng.chance(0.4)) {
        const auto candidate = pick(ids);
        if (depth(candidate) < 3) {
          parent = candidate;
        }
      }
      const auto id = tree.create("g" + std::to_string(names++), parent);
      ever.push_back(id);
      if (rng.chance(0.5)) {
        tree.set_cpu_shares(id, rng.uniform_int(2, 4096));
      }
    }
    // Destroy a leaf, sometimes with consumers still attached.
    if (!ids.empty() && rng.chance(ids.size() > 30 ? 0.08 : 0.02)) {
      const auto id = pick(ids);
      if (tree.get(id).children().empty()) {
        if (rng.chance(0.5)) {
          for (auto& pair : pairs) {
            if (pair->cgroup == id) {
              sched.detach(id, &pair->live[0]);
              ref.detach(id, &pair->live[1]);
              pair->cgroup = -1;
            }
          }
        }
        tree.destroy(id);
      }
    }
    // Knob changes, on the cgroup itself or an ancestor of attached ones.
    const auto now_ids = tree.all_ids();
    if (!now_ids.empty() && rng.chance(0.05)) {
      const auto id = pick(now_ids);
      switch (rng.uniform_int(0, 4)) {
        case 0:
          tree.set_cpu_shares(id, rng.uniform_int(2, 8192));
          break;
        case 1:
          tree.set_cpuset(id, rng.chance(0.2) ? CpuSet{} : random_mask());
          break;
        case 2: {
          const std::int64_t least = param.shaped ? 100 : 500;
          const std::int64_t most = param.shaped ? 3'000 : 4 * cpus * 10'000;
          tree.set_cfs_quota(id, rng.chance(0.3) ? kUnlimited : rng.uniform_int(least, most));
          break;
        }
        case 3:
          tree.set_cfs_period(id, rng.uniform_int(1'000, 200'000));
          break;
        default:
          tree.set_mem_limit(id, rng.uniform_int(1, 1 << 30));  // moves generation only
          break;
      }
    }
    // Attach and detach consumers; a cgroup has at most one.
    std::vector<cgroup::CgroupId> free_ids;
    if (!now_ids.empty() && rng.chance(0.1)) {
      for (const auto id : now_ids) {
        if (std::none_of(pairs.begin(), pairs.end(),
                         [id](const auto& pair) { return pair->cgroup == id; })) {
          free_ids.push_back(id);
        }
      }
    }
    if (!free_ids.empty()) {
      Pair* pair = nullptr;
      for (auto& candidate : pairs) {
        if (candidate->cgroup < 0) {
          pair = candidate.get();
          break;
        }
      }
      if (pair == nullptr || rng.chance(0.2)) {
        pair = new_pair();
      }
      attach(pair, pick(free_ids));
    }
    if (!pairs.empty() && rng.chance(0.05)) {
      auto& pair = *pairs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1))];
      if (pair.cgroup >= 0) {
        sched.detach(pair.cgroup, &pair.live[0]);
        ref.detach(pair.cgroup, &pair.live[1]);
        pair.cgroup = -1;
      }
    }
    // Thread counts drift, with occasional all-idle stretches.
    const bool all_idle = (t / 500) % 7 == 3;
    for (auto& pair : pairs) {
      if (all_idle) {
        pair->live[0].threads = 0;
      } else if (rng.chance(0.2)) {
        pair->live[0].threads = random_threads();
      }
    }
  };

  // Steady: 16 cgroups, some of them nested, one consumer each. A
  // quota of 0.5-20 ms per 10-50 ms period runs out mid-period, period
  // after period, so the demand moves on its own too.
  const auto steady_quota = [&] {
    return rng.chance(0.3) ? kUnlimited : rng.uniform_int(500, 20'000);
  };
  if (param.steady) {
    for (int i = 0; i < 16; ++i) {
      cgroup::CgroupId parent = cgroup::kRootCgroup;
      if (i >= 4 && rng.chance(0.3)) {
        parent = ever[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      }
      const auto id = tree.create("g" + std::to_string(names++), parent);
      ever.push_back(id);
      tree.set_cpu_shares(id, rng.uniform_int(2, 4096));
      if (rng.chance(0.5)) {
        tree.set_cpuset(id, random_mask());
      }
      if (rng.chance(0.4)) {
        tree.set_cfs_period(id, rng.uniform_int(10'000, 50'000));
        tree.set_cfs_quota(id, steady_quota());
      }
      Pair* pair = new_pair();
      attach(pair, id);
      pair->live[0].threads = std::max(1, random_threads());
    }
  }
  // A steady tick changes nothing, or exactly one input of the fill's key.
  int unchanged = 0;
  const auto steady_change = [&] {
    if (rng.chance(0.9)) {
      ++unchanged;
      return;
    }
    const auto id = pick(tree.all_ids());
    switch (rng.uniform_int(0, 3)) {
      case 0:
        tree.set_cpu_shares(id, rng.uniform_int(2, 4096));
        break;
      case 1:
        tree.set_cpuset(id, random_mask());
        break;
      case 2:
        tree.set_cfs_quota(id, steady_quota());
        break;
      default: {
        auto& pair = *pairs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1))];
        pair.live[0].threads = random_threads();
        break;
      }
    }
  };

  constexpr int kTicks = 12'000;
  SimTime now = 0;
  for (int t = 0; t < kTicks; ++t) {
    if (param.steady) {
      steady_change();
    } else {
      churn(t);
    }
    for (auto& pair : pairs) {
      pair->live[1].threads = pair->live[0].threads;
      pair->live[0].last = 0;
      pair->live[1].last = 0;
    }

    ASSERT_EQ(sched.idle(), ref.idle()) << "tick " << t;
    delivered[0].clear();
    delivered[1].clear();
    sched.tick(now, kTick);
    ref.tick(now, kTick);
    now += kTick;

    ASSERT_EQ(delivered[0], delivered[1]) << "tick " << t;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(pairs[i]->live[0].last, pairs[i]->live[1].last)
          << "tick " << t << " consumer " << i;
    }
    // Destroyed cgroups' stats are frozen, so every id is checked only
    // every 100 ticks and the live ones every tick.
    for (const auto id : t % 100 == 0 ? ever : tree.all_ids()) {
      const EntityStats got = sched.stats(id);
      const EntityStats want = ref.stats(id);
      ASSERT_EQ(got.total_usage, want.total_usage) << "tick " << t << " cgroup " << id;
      ASSERT_EQ(got.throttled_time, want.throttled_time)
          << "tick " << t << " cgroup " << id;
      ASSERT_EQ(got.last_tick_grant, want.last_tick_grant)
          << "tick " << t << " cgroup " << id;
    }
    ASSERT_EQ(sched.last_tick_slack(), ref.last_tick_slack()) << "tick " << t;
    ASSERT_EQ(sched.total_slack(), ref.total_slack()) << "tick " << t;
    ASSERT_EQ(sched.nr_running(), ref.nr_running()) << "tick " << t;
    ASSERT_EQ(bits(sched.loadavg()), bits(ref.loadavg())) << "tick " << t;
  }
  if (param.steady) {
    // Most ticks must have repeated the last tick's inputs.
    EXPECT_GT(unchanged, kTicks * 8 / 10);
  } else {
    // The churn must have exercised the interesting paths.
    EXPECT_GT(ever.size(), 100U);
    EXPECT_GT(sched.total_slack(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveSetDifferential,
                         ::testing::Values(Churn{1, 4}, Churn{7, 20}, Churn{42, 70},
                                           Churn{20190624, 130}, Churn{3, 8, true},
                                           Churn{11, 20, true}, Churn{20190624, 64, true},
                                           Churn{1, 4, true, true}, Churn{42, 70, false, true},
                                           Churn{20190624, 64, true, true}),
                         [](const ::testing::TestParamInfo<Churn>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_cpus" +
                                  std::to_string(info.param.cpus) +
                                  (info.param.shaped ? "_shaped" : "") +
                                  (info.param.steady ? "_steady" : "");
                         });

// --- cache invalidation -----------------------------------------------------

struct Fixture {
  explicit Fixture(int cpus) : tree(cpus), sched(tree, cpus) {}
  void tick() {
    sched.tick(now, kTick);
    now += kTick;
  }
  cgroup::Tree tree;
  FairScheduler sched;
  SimTime now = 0;
};

TEST(LiveSet, SharesChangeTakesEffectNextTick) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  FakeConsumer ca(8);
  FakeConsumer cb(8);
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  f.tick();
  EXPECT_EQ(ca.last(), 2 * msec);
  EXPECT_EQ(cb.last(), 2 * msec);
  f.tree.set_cpu_shares(a, 3072);
  f.tick();
  EXPECT_EQ(ca.last(), 3 * msec);
  EXPECT_EQ(cb.last(), 1 * msec);
}

TEST(LiveSet, CpusetChangeTakesEffectNextTick) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  FakeConsumer ca(8);
  f.sched.attach(a, &ca);
  f.tick();
  EXPECT_EQ(ca.last(), 4 * msec);
  f.tree.set_cpuset(a, *CpuSet::parse("0-1"));
  f.tick();
  EXPECT_EQ(ca.last(), 2 * msec);
  EXPECT_EQ(f.sched.last_tick_slack(), 2 * msec);
}

TEST(LiveSet, CpusetChangeWithTheSameDemandTakesEffectNextTick) {
  // a's one thread moves from CPUs 0-3 onto CPU 3, where b is pinned: its
  // demand and weight stay the same, only its mask moves.
  Fixture f(4);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  f.tree.set_cpuset(b, *CpuSet::parse("3"));
  FakeConsumer ca(1);
  FakeConsumer cb(1);
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  f.tick();
  f.tick();
  EXPECT_EQ(ca.last(), 1 * msec);
  EXPECT_EQ(cb.last(), 1 * msec);
  f.tree.set_cpuset(a, *CpuSet::parse("3"));
  f.tick();
  EXPECT_EQ(ca.last(), 500);
  EXPECT_EQ(cb.last(), 500);
  EXPECT_EQ(f.sched.last_tick_slack(), 3 * msec);
}

TEST(LiveSet, QuotaChangeTakesEffectNextTick) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  FakeConsumer ca(8);
  f.sched.attach(a, &ca);
  f.tick();
  EXPECT_EQ(ca.last(), 4 * msec);
  f.tree.set_cfs_quota(a, 1500);
  f.tick();
  EXPECT_EQ(ca.last(), 1500);
  EXPECT_EQ(f.sched.throttled_time(a), 4 * msec - 1500);
  f.tick();
  EXPECT_EQ(ca.last(), 0);
}

TEST(LiveSet, PeriodChangeTakesEffectAtTheNextRefill) {
  // 1 ms of quota per 10 ms period; from the refill at 10 ms on, the period
  // is 2 ms, so the 10 ms window starting there holds five refills.
  Fixture f(4);
  const auto a = f.tree.create("a");
  f.tree.set_cfs_period(a, 10 * msec);
  f.tree.set_cfs_quota(a, 1 * msec);
  FakeConsumer ca(4);
  f.sched.attach(a, &ca);
  for (int i = 0; i < 10; ++i) {
    f.tick();
  }
  EXPECT_EQ(ca.total(), 1 * msec);
  f.tree.set_cfs_period(a, 2 * msec);
  for (int i = 0; i < 10; ++i) {
    f.tick();
  }
  EXPECT_EQ(ca.total(), 6 * msec);
}

TEST(LiveSet, ParentQuotaTightensChildBandwidthNextTick) {
  Fixture f(4);
  const auto parent = f.tree.create("parent");
  const auto child = f.tree.create("child", parent);
  FakeConsumer consumer(4);
  f.sched.attach(child, &consumer);
  f.tick();
  EXPECT_EQ(consumer.last(), 4 * msec);
  f.tree.set_cfs_quota(parent, 2500);  // child's own quota stays unlimited
  f.tick();
  EXPECT_EQ(consumer.last(), 2500);
  f.tick();
  EXPECT_EQ(consumer.last(), 0);
  EXPECT_EQ(f.sched.throttled_time(child), (4 * msec - 2500) + 4 * msec);
}

TEST(LiveSet, DestroyedCgroupWithConsumersIsSkippedAndKeepsStats) {
  Fixture f(2);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  FakeConsumer ca(2);
  FakeConsumer cb(2);
  f.sched.attach(a, &ca);
  f.sched.attach(b, &cb);
  f.tick();
  EXPECT_EQ(ca.last(), 1 * msec);
  f.tree.destroy(a);  // consumer still attached
  f.tick();
  EXPECT_EQ(ca.consume_calls(), 1);
  EXPECT_EQ(cb.last(), 2 * msec);
  EXPECT_EQ(f.sched.stats(a).total_usage, 1 * msec);
  EXPECT_EQ(f.sched.stats(a).last_tick_grant, 1 * msec);  // frozen at destroy
  EXPECT_TRUE(f.sched.attached(a));
  cb.set_threads(0);
  EXPECT_TRUE(f.sched.idle());  // a's runnable consumer no longer counts
  f.tick();
  EXPECT_EQ(f.sched.nr_running(), 0);
  EXPECT_EQ(f.sched.last_tick_slack(), 2 * msec);
}

TEST(LiveSet, ReattachWithinThePeriodKeepsPartiallyUsedQuota) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  f.tree.set_cfs_quota(a, 5 * msec);
  FakeConsumer first(4);
  f.sched.attach(a, &first);
  f.tick();
  EXPECT_EQ(first.last(), 4 * msec);
  f.sched.detach(a, &first);
  EXPECT_FALSE(f.sched.attached(a));
  f.tick();
  FakeConsumer second(4);
  f.sched.attach(a, &second);
  f.tick();
  EXPECT_EQ(second.last(), 1 * msec);  // what was left of this period's quota
  f.tick();
  EXPECT_EQ(second.last(), 0);
  EXPECT_EQ(f.sched.total_usage(a), 5 * msec);
}

// --- consumers that change the topology from inside consume() -------------

/// Runs `action` from its first consume() call, then behaves like a plain
/// consumer.
class HookConsumer : public Schedulable {
 public:
  HookConsumer(int threads, std::function<void()> action)
      : threads_(threads), action_(std::move(action)) {}
  int runnable_threads() const override { return threads_; }
  void consume(SimTime /*now*/, SimDuration /*dt*/, CpuTime grant) override {
    total_ += grant;
    if (action_) {
      auto action = std::move(action_);
      action_ = nullptr;
      action();
    }
  }
  CpuTime total() const { return total_; }

 private:
  int threads_;
  std::function<void()> action_;
  CpuTime total_ = 0;
};

TEST(LiveSet, ConsumeMayCreateAndAttach) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  FakeConsumer late(2);
  cgroup::CgroupId created = -1;
  HookConsumer hook(2, [&] {
    created = f.tree.create("b");
    f.sched.attach(created, &late);
  });
  f.sched.attach(a, &hook);
  f.tick();
  ASSERT_GE(created, 0);
  EXPECT_EQ(late.consume_calls(), 0);  // joins from the next tick
  f.tick();
  EXPECT_EQ(late.last(), 2 * msec);
  EXPECT_EQ(hook.total(), 4 * msec);
  EXPECT_EQ(f.sched.nr_running(), 4);
}

TEST(LiveSet, ConsumeMayAttachToAnExistingCgroup) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");  // no consumer yet
  FakeConsumer late(2);
  HookConsumer hook(1, [&] { f.sched.attach(b, &late); });
  f.sched.attach(a, &hook);
  f.tick();
  f.tick();
  EXPECT_EQ(late.last(), 2 * msec);
  EXPECT_EQ(f.sched.total_usage(b), 2 * msec);
}

TEST(LiveSet, ConsumeMayDestroyALaterClaimsCgroup) {
  Fixture f(4);
  const auto a = f.tree.create("a");
  const auto b = f.tree.create("b");
  const auto c = f.tree.create("c");
  FakeConsumer cb(1);
  FakeConsumer cc(1);
  HookConsumer hook(1, [&] {
    f.sched.detach(c, &cc);
    f.tree.destroy(c);
    f.tree.destroy(b);  // b keeps its consumer attached
  });
  f.sched.attach(a, &hook);
  f.sched.attach(b, &cb);
  f.sched.attach(c, &cc);
  f.tick();
  // This tick's claims were formed before the hook ran: b is still paid,
  // c lost its consumer first.
  EXPECT_EQ(cb.consume_calls(), 1);
  EXPECT_EQ(cc.consume_calls(), 0);
  f.tick();
  EXPECT_EQ(cb.consume_calls(), 1);
  EXPECT_EQ(hook.total(), 2 * msec);
  EXPECT_EQ(f.sched.nr_running(), 1);
  EXPECT_EQ(f.sched.total_usage(b), 1 * msec);
}

// --- delivery to a cgroup's one consumer ----------------------------------
//
// A cgroup's consumer takes its whole grant, but its runnable count is read
// again at delivery time, after every earlier consume() of the tick has run. Each case runs once on FairScheduler and once
// on the reference scheduler and compares what the consumers and stats saw.

struct DeliveryRecord {
  std::vector<EntityStats> stats;  // per cgroup, per tick
  std::vector<int> calls;          // the watched consumer's consume() count, per tick
  std::vector<CpuTime> slack;      // per tick
};

void expect_same(const DeliveryRecord& got, const DeliveryRecord& want) {
  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (std::size_t i = 0; i < got.stats.size(); ++i) {
    EXPECT_EQ(got.stats[i].total_usage, want.stats[i].total_usage) << "entry " << i;
    EXPECT_EQ(got.stats[i].throttled_time, want.stats[i].throttled_time) << "entry " << i;
    EXPECT_EQ(got.stats[i].last_tick_grant, want.stats[i].last_tick_grant) << "entry " << i;
  }
  EXPECT_EQ(got.calls, want.calls);
  EXPECT_EQ(got.slack, want.slack);
}

/// Cgroups a < b, one consumer each; a's first consume() sets b's consumer
/// to 0 runnable threads after b's claim was formed.
template <typename Scheduler>
DeliveryRecord run_runnable_drop() {
  cgroup::Tree tree(4);
  Scheduler sched(tree, 4);
  const auto a = tree.create("a");
  const auto b = tree.create("b");
  FakeConsumer later(2);
  HookConsumer hook(1, [&] { later.set_threads(0); });
  sched.attach(a, &hook);
  sched.attach(b, &later);
  DeliveryRecord record;
  for (int t = 0; t < 3; ++t) {
    sched.tick(t * kTick, kTick);
    record.stats.push_back(sched.stats(a));
    record.stats.push_back(sched.stats(b));
    record.calls.push_back(later.consume_calls());
    record.slack.push_back(sched.last_tick_slack());
  }
  return record;
}

/// A sole consumer detaches itself inside consume(); a later cgroup's sole
/// consumer must still be paid that tick.
template <typename Scheduler>
DeliveryRecord run_self_detach() {
  cgroup::Tree tree(4);
  Scheduler sched(tree, 4);
  const auto a = tree.create("a");
  const auto b = tree.create("b");
  FakeConsumer later(1);
  HookConsumer* self = nullptr;
  HookConsumer hook(2, [&] { sched.detach(a, self); });
  self = &hook;
  sched.attach(a, &hook);
  sched.attach(b, &later);
  DeliveryRecord record;
  for (int t = 0; t < 3; ++t) {
    sched.tick(t * kTick, kTick);
    record.stats.push_back(sched.stats(a));
    record.stats.push_back(sched.stats(b));
    record.calls.push_back(later.consume_calls());
    record.slack.push_back(sched.last_tick_slack());
  }
  EXPECT_EQ(hook.total(), 2 * msec);  // paid once, then detached
  return record;
}

TEST(FairScheduler, SingleConsumerRereadsRunnableAtDelivery) {
  const DeliveryRecord got = run_runnable_drop<FairScheduler>();
  // b's claim was granted and accounted in tick 0, but its consumer had
  // nothing left to run when delivery reached it, so it got no consume().
  EXPECT_EQ(got.calls, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(got.stats[1].total_usage, 2 * msec);
  EXPECT_EQ(got.stats[1].last_tick_grant, 2 * msec);
  EXPECT_EQ(got.stats[3].last_tick_grant, 0);
  expect_same(got, run_runnable_drop<ReferenceScheduler>());
}

TEST(FairScheduler, SingleConsumerMayDetachItselfInConsume) {
  const DeliveryRecord got = run_self_detach<FairScheduler>();
  EXPECT_EQ(got.calls, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(got.stats[4].total_usage, 2 * msec);  // a: tick 0 only
  EXPECT_EQ(got.stats[4].last_tick_grant, 0);
  expect_same(got, run_self_detach<ReferenceScheduler>());
}

}  // namespace
}  // namespace arv::sched
