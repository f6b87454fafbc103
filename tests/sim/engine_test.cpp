#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "src/util/rng.h"

namespace arv::sim {
namespace {

class Recorder : public TickComponent {
 public:
  explicit Recorder(std::string tag, std::vector<std::string>* log)
      : tag_(std::move(tag)), log_(log) {}
  void tick(SimTime now, SimDuration) override {
    log_->push_back(tag_ + "@" + std::to_string(now));
    ticks_ += 1;
  }
  std::string name() const override { return tag_; }
  int ticks() const { return ticks_; }

 private:
  std::string tag_;
  std::vector<std::string>* log_;
  int ticks_ = 0;
};

TEST(Engine, ClockAdvancesByTick) {
  Engine engine(1000);
  EXPECT_EQ(engine.now(), 0);
  engine.step();
  EXPECT_EQ(engine.now(), 1000);
  engine.step();
  EXPECT_EQ(engine.now(), 2000);
  EXPECT_EQ(engine.ticks_executed(), 2u);
}

TEST(Engine, RunForRoundsUpToWholeTicks) {
  Engine engine(1000);
  engine.run_for(2500);
  EXPECT_EQ(engine.now(), 3000);
}

TEST(Engine, ComponentsTickInRegistrationOrder) {
  Engine engine(1000);
  std::vector<std::string> log;
  Recorder a("a", &log);
  Recorder b("b", &log);
  engine.add_component(&a);
  engine.add_component(&b);
  engine.step();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "a@1000");
  EXPECT_EQ(log[1], "b@1000");
}

TEST(Engine, EventsFireAtDueTick) {
  Engine engine(1000);
  std::vector<SimTime> fired;
  engine.schedule_at(1500, [&] { fired.push_back(engine.now()); });
  engine.step();  // now = 1000, event not yet due
  EXPECT_TRUE(fired.empty());
  engine.step();  // now = 2000 >= 1500
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2000);
}

TEST(Engine, EventsFireInTimeThenFifoOrder) {
  Engine engine(1000);
  std::vector<int> order;
  engine.schedule_at(900, [&] { order.push_back(2); });
  engine.schedule_at(500, [&] { order.push_back(1); });
  engine.schedule_at(900, [&] { order.push_back(3); });
  engine.step();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventMayScheduleFurtherEvents) {
  Engine engine(1000);
  int fired = 0;
  engine.schedule_after(500, [&] {
    ++fired;
    engine.schedule_after(1000, [&] { ++fired; });
  });
  engine.run_for(3000);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine engine(1000);
  engine.run_for(5000);
  SimTime seen = -1;
  engine.schedule_after(2000, [&] { seen = engine.now(); });
  engine.run_for(3000);
  EXPECT_EQ(seen, 7000);
}

TEST(Engine, RunUntilPredicate) {
  Engine engine(1000);
  int counter = 0;
  engine.schedule_at(4000, [&] { counter = 1; });
  const bool hit = engine.run_until([&] { return counter == 1; }, 100000);
  EXPECT_TRUE(hit);
  EXPECT_EQ(engine.now(), 4000);
}

TEST(Engine, RunUntilDeadlineExpires) {
  Engine engine(1000);
  const bool hit = engine.run_until([] { return false; }, 5000);
  EXPECT_FALSE(hit);
  EXPECT_EQ(engine.now(), 5000);
}

TEST(Engine, PendingEventsCount) {
  Engine engine(1000);
  engine.schedule_at(10000, [] {});
  engine.schedule_at(20000, [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.run_for(10000);
  EXPECT_EQ(engine.pending_events(), 1u);
}

class Periodic : public TickComponent {
 public:
  explicit Periodic(SimDuration period) : period_(period) {}
  void tick(SimTime now, SimDuration dt) override {
    times_.push_back(now);
    dts_.push_back(dt);
  }
  SimDuration tick_period() const override { return period_; }
  std::string name() const override { return "periodic"; }
  void set_period(SimDuration period) { period_ = period; }
  const std::vector<SimTime>& times() const { return times_; }
  const std::vector<SimDuration>& dts() const { return dts_; }

 private:
  SimDuration period_;
  std::vector<SimTime> times_;
  std::vector<SimDuration> dts_;
};

TEST(Engine, PeriodicComponentFiresAtItsPeriod) {
  Engine engine(1000);
  Periodic slow(3000);
  engine.add_component(&slow);
  engine.run_for(10000);
  // First dispatch at the tick after registration, then every period.
  EXPECT_EQ(slow.times(), (std::vector<SimTime>{1000, 4000, 7000, 10000}));
  EXPECT_EQ(slow.dts(), (std::vector<SimDuration>{1000, 3000, 3000, 3000}));
}

TEST(Engine, PeriodIsReQueriedAfterEachDispatch) {
  Engine engine(1000);
  Periodic dynamic(1000);
  engine.add_component(&dynamic);
  engine.run_for(3000);  // fires at 1000, 2000, 3000
  dynamic.set_period(4000);
  // The dispatch at 4000 was queued with the old period; the new period is
  // picked up when it fires, so the following dispatch lands at 8000.
  engine.run_for(8000);
  EXPECT_EQ(dynamic.times(),
            (std::vector<SimTime>{1000, 2000, 3000, 4000, 8000}));
}

TEST(Engine, SubTickPeriodClampsToTickLength) {
  Engine engine(1000);
  Periodic eager(1);  // wants sub-tick cadence; engine can't go finer
  engine.add_component(&eager);
  engine.run_for(3000);
  EXPECT_EQ(eager.times(), (std::vector<SimTime>{1000, 2000, 3000}));
}

TEST(Engine, AdvanceClockJumpsWithoutDispatching) {
  Engine engine(1000);
  std::vector<std::string> log;
  Recorder a("a", &log);
  engine.add_component(&a);
  engine.advance_clock(5000);
  EXPECT_EQ(engine.now(), 5000);
  EXPECT_EQ(engine.ticks_executed(), 5u);
  EXPECT_TRUE(log.empty()) << "a jump must not dispatch anything";
  engine.advance_clock(5000);  // no-op jump to the present
  EXPECT_EQ(engine.now(), 5000);
}

TEST(Engine, AdvanceClockRetimesOverdueDispatchEntries) {
  Engine engine(1000);
  Periodic every(0);      // due every tick
  Periodic sparse(10000); // periodic, due at 10000
  engine.add_component(&every);
  engine.add_component(&sparse);
  engine.advance_clock(4000);
  engine.step();  // now = 5000
  // The per-tick component resumes with dt = one tick — `last` was reset to
  // the jump target, so the frozen gap is not double-counted into dt (the
  // caller accounts for the gap analytically instead).
  EXPECT_EQ(every.times(), (std::vector<SimTime>{5000}));
  EXPECT_EQ(every.dts(), (std::vector<SimDuration>{1000}));
  // The sparse component's *first* dispatch (due the tick after
  // registration, per the engine's first-dispatch rule) also fell inside
  // the gap, so it too was re-timed to the tick after the jump; its period
  // governs from there.
  engine.run_for(10000);  // now = 15000
  EXPECT_EQ(sparse.times(), (std::vector<SimTime>{5000, 15000}));
  EXPECT_EQ(sparse.dts(), (std::vector<SimDuration>{1000, 10000}));
}

TEST(Engine, AdvanceClockRefusesToSkipDueEvents) {
  Engine engine(1000);
  engine.schedule_at(3000, [] {});
  engine.advance_clock(2000);  // up to (not past) the event is fine
  EXPECT_EQ(engine.now(), 2000);
  EXPECT_DEATH(engine.advance_clock(4000), "due one-shot event");
}

TEST(Engine, AddingAComponentTwiceAborts) {
  Engine engine(1000);
  std::vector<std::string> log;
  Recorder a("a", &log);
  engine.add_component(&a);
  EXPECT_DEATH(engine.add_component(&a), "registered twice");
}

// --- dispatch equivalence with the former priority-queue dispatcher ---------

/// One dispatch as a component saw it: (now, component id, dt).
using DispatchLog = std::vector<std::tuple<SimTime, int, SimDuration>>;

/// Reference implementation: the due-time priority queue the engine used to
/// dispatch components with, ordered by (due time, registration order).
/// Events are left out; the schedules below schedule none.
class QueueDispatcher {
 public:
  explicit QueueDispatcher(SimDuration tick) : tick_(tick) {}

  SimTime now() const { return now_; }

  void add_component(TickComponent* component) {
    queue_.push(Entry{now_ + tick_, next_seq_++, now_, component});
  }

  void step() {
    now_ += tick_;
    while (!queue_.empty() && queue_.top().when <= now_) {
      const Entry due = queue_.top();
      queue_.pop();
      due.component->tick(now_, now_ - due.last);
      const SimDuration period = std::max(due.component->tick_period(), tick_);
      queue_.push(Entry{now_ + period, due.seq, now_, due.component});
    }
  }

  void advance_clock(SimTime to) {
    now_ = to;
    std::vector<Entry> entries;
    while (!queue_.empty()) {
      entries.push_back(queue_.top());
      queue_.pop();
    }
    for (Entry& entry : entries) {
      if (entry.when <= now_) {
        entry.when = now_ + tick_;
        entry.last = now_;
      }
      queue_.push(entry);
    }
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    SimTime last;
    TickComponent* component;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  SimDuration tick_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

/// Logs each dispatch, then takes the next period from its script, so the
/// period changes after every dispatch. On its `spawn_on`-th dispatch it
/// calls `spawn`, which registers another component mid-tick.
class Probe : public TickComponent {
 public:
  Probe(int id, std::vector<SimDuration> periods, int spawn_on,
        DispatchLog* log, std::function<void()> spawn)
      : id_(id),
        periods_(std::move(periods)),
        spawn_on_(spawn_on),
        log_(log),
        spawn_(std::move(spawn)) {}
  void tick(SimTime now, SimDuration dt) override {
    log_->emplace_back(now, id_, dt);
    if (++dispatches_ == spawn_on_) {
      spawn_();
    }
  }
  SimDuration tick_period() const override {
    return periods_[static_cast<std::size_t>(dispatches_) % periods_.size()];
  }
  std::string name() const override { return "probe" + std::to_string(id_); }

 private:
  int id_;
  std::vector<SimDuration> periods_;
  int spawn_on_;
  DispatchLog* log_;
  std::function<void()> spawn_;
  int dispatches_ = 0;
};

constexpr SimDuration kTick = 1000;

/// A seeded random schedule, replayable against any dispatcher.
struct Schedule {
  struct Component {
    std::vector<SimDuration> periods;
    int spawn_on = 0;  ///< 0 = never spawns
  };
  enum class Op { kStep, kJump, kAdd };
  std::vector<Component> components;  ///< registered in this order
  int registered_up_front = 1;
  std::vector<std::pair<Op, SimDuration>> ops;  ///< (op, jump gap)
};

/// Periods of 0, sub-tick, or a whole number of ticks.
SimDuration random_period(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return 0;
    case 1:
      return rng.uniform_int(1, kTick - 1);
    default:
      return rng.uniform_int(1, 6) * kTick;
  }
}

Schedule random_schedule(std::uint64_t seed) {
  Rng rng(seed);
  Schedule schedule;
  const auto count = rng.uniform_int(1, 12);
  for (std::int64_t i = 0; i < count; ++i) {
    Schedule::Component component;
    const auto periods = rng.uniform_int(1, 4);
    for (std::int64_t p = 0; p < periods; ++p) {
      component.periods.push_back(random_period(rng));
    }
    component.spawn_on =
        rng.chance(0.5) ? static_cast<int>(rng.uniform_int(1, 5)) : 0;
    schedule.components.push_back(std::move(component));
  }
  schedule.registered_up_front = static_cast<int>(rng.uniform_int(1, count));
  const auto ops = rng.uniform_int(20, 200);
  for (std::int64_t i = 0; i < ops; ++i) {
    const double roll = rng.uniform();
    if (roll < 0.1) {
      schedule.ops.emplace_back(Schedule::Op::kJump,
                                rng.uniform_int(1, 20) * kTick);
    } else if (roll < 0.15) {
      schedule.ops.emplace_back(Schedule::Op::kAdd, 0);
    } else {
      schedule.ops.emplace_back(Schedule::Op::kStep, 0);
    }
  }
  return schedule;
}

template <typename Dispatcher>
DispatchLog replay(const Schedule& schedule) {
  Dispatcher dispatcher(kTick);
  DispatchLog log;
  std::vector<std::unique_ptr<Probe>> probes;
  std::size_t registered = 0;
  const auto register_next = [&] {
    if (registered < probes.size()) {
      dispatcher.add_component(probes[registered++].get());
    }
  };
  for (std::size_t i = 0; i < schedule.components.size(); ++i) {
    const Schedule::Component& c = schedule.components[i];
    probes.push_back(std::make_unique<Probe>(static_cast<int>(i), c.periods,
                                             c.spawn_on, &log, register_next));
  }
  for (int i = 0; i < schedule.registered_up_front; ++i) {
    register_next();
  }
  for (const auto& [op, gap] : schedule.ops) {
    switch (op) {
      case Schedule::Op::kStep:
        dispatcher.step();
        break;
      case Schedule::Op::kJump:
        dispatcher.advance_clock(dispatcher.now() + gap);
        break;
      case Schedule::Op::kAdd:
        register_next();
        break;
    }
  }
  return log;
}

int differential_iterations() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  const int iters = env != nullptr ? std::atoi(env) : 0;
  return iters > 0 ? iters : 20;
}

// The registration-order scan dispatches exactly what the priority queue
// did. The periods are 0, sub-tick or whole ticks, so every due time is a
// tick boundary and "due now" entries share one due time, which makes the
// queue's (due time, registration) order the registration order.
TEST(Engine, DispatchMatchesThePriorityQueueReference) {
  const int iters = differential_iterations();
  std::size_t dispatches = 0;
  for (int seed = 1; seed <= iters; ++seed) {
    const Schedule schedule = random_schedule(static_cast<std::uint64_t>(seed));
    const DispatchLog expected = replay<QueueDispatcher>(schedule);
    const DispatchLog actual = replay<Engine>(schedule);
    ASSERT_EQ(actual, expected) << "seed " << seed;
    dispatches += actual.size();
  }
  EXPECT_GT(dispatches, 0u);
}

// A period that is not a whole number of ticks leaves a component due between
// two ticks. It still runs in registration order on the tick that serves it:
// the host relies on scheduler -> memory -> monitor -> recorder order.
TEST(Engine, DueComponentsRunInRegistrationOrderWhateverTheirDueTime) {
  Engine engine(kTick);
  DispatchLog log;
  Probe every(0, {0}, 0, &log, [] {});
  Probe offbeat(1, {1500}, 0, &log, [] {});
  engine.add_component(&every);
  engine.add_component(&offbeat);
  engine.run_for(3 * kTick);
  // offbeat: 1000, then due at 2500 and served at 3000 after `every`.
  EXPECT_EQ(log, (DispatchLog{{1000, 0, 1000},
                              {1000, 1, 1000},
                              {2000, 0, 1000},
                              {3000, 0, 1000},
                              {3000, 1, 2000}}));
}

TEST(Engine, ComponentAddedDuringTickFirstTicksOnTheNextTick) {
  Engine engine(kTick);
  DispatchLog log;
  Probe child(1, {0}, 0, &log, [] {});
  Probe parent(0, {0}, 1, &log, [&] { engine.add_component(&child); });
  engine.add_component(&parent);
  engine.run_for(3 * kTick);
  EXPECT_EQ(log, (DispatchLog{{1000, 0, 1000},
                              {2000, 0, 1000},
                              {2000, 1, 1000},
                              {3000, 0, 1000},
                              {3000, 1, 1000}}));
  EXPECT_EQ(engine.component_count(), 2u);
}

TEST(Engine, SelfReschedulingTimerPattern) {
  Engine engine(1000);
  int fires = 0;
  std::function<void()> reschedule = [&] {
    ++fires;
    if (fires < 5) {
      engine.schedule_after(2000, reschedule);
    }
  };
  engine.schedule_after(2000, reschedule);
  engine.run_for(20000);
  EXPECT_EQ(fires, 5);
}

}  // namespace
}  // namespace arv::sim
