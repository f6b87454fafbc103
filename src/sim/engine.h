// Deterministic tick-based simulation engine.
//
// The engine owns simulated time. Each step advances the clock by a fixed
// tick (default 1 ms, matching the granularity at which the CFS model
// redistributes CPU), fires one-shot events that became due, then dispatches
// the registered components that are due this tick.
//
// Components declare a tick period (tick_period()): 0 means "every tick"
// (the scheduler and the memory manager genuinely move state every tick),
// a positive period means the component only needs attention that often
// (the Ns_Monitor fires once per scheduling period, the trace recorder once
// per sample interval). Each step scans the components in registration
// order and ticks the due ones, so components due on the same tick run in
// that order — the host registers scheduler -> memory -> monitors -> recorder
// so that resource grants precede consumption and samples see the tick's
// final state. The period is re-queried after every dispatch, so a
// periodic component may stretch and shrink its own cadence (the Ns_Monitor
// tracks the CFS scheduling period).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "src/util/types.h"

namespace arv::sim {

/// Anything advanced by the engine. Components are non-owning raw pointers:
/// the host object that registers them outlives the engine run.
class TickComponent {
 public:
  virtual ~TickComponent() = default;

  /// Advance simulated state from `now - dt` to `now`. `dt` is the time
  /// since this component's previous dispatch (== the engine tick length
  /// for period-0 components).
  virtual void tick(SimTime now, SimDuration dt) = 0;

  /// Diagnostic name used in traces.
  virtual std::string name() const = 0;

  /// How often the component needs tick(). 0 (the default) means every
  /// engine tick. Re-queried by the engine after each dispatch, so the
  /// period may vary over the run. A component's first dispatch is always
  /// the tick after registration, regardless of period.
  virtual SimDuration tick_period() const { return 0; }
};

class Engine {
 public:
  explicit Engine(SimDuration tick_length = 1 * units::msec);

  SimTime now() const { return now_; }
  SimDuration tick_length() const { return tick_length_; }

  /// Register a component; first dispatched on the tick after registration,
  /// then per its tick_period(). Components due on the same tick run in
  /// registration order. Safe to call from inside a tick(): the new
  /// component is first due on the next tick.
  void add_component(TickComponent* component);

  /// Schedule a one-shot callback at absolute simulated time `when` (>= now).
  /// Events due within a tick fire at that tick's start, in (time, FIFO)
  /// order. An event may schedule further events.
  void schedule_at(SimTime when, std::function<void()> fn);
  void schedule_after(SimDuration delay, std::function<void()> fn);

  /// Advance exactly one tick.
  void step();

  /// Jump the clock to `to` (a whole number of ticks ahead) without
  /// dispatching anything — the skipped-host fast path of the cluster's
  /// lockstep engine. Only legal when every skipped tick would have been a
  /// no-op: the caller (Host::advance_idle) guarantees quiescence, and this
  /// method asserts no one-shot event was due in the gap. Component dispatch
  /// entries that fell due inside the gap are re-timed as if they had fired
  /// as no-ops: next dispatch one tick out, `last` = `to` so the next real
  /// dt does not double-count the gap (the caller applies the gap's
  /// cumulative effect, e.g. idle slack accrual, itself).
  void advance_clock(SimTime to);

  /// Run for a simulated duration (rounded up to whole ticks).
  void run_for(SimDuration duration);

  /// Run until `done()` returns true or `deadline` passes; returns true if
  /// the predicate fired. The predicate is evaluated after every tick.
  bool run_until(const std::function<bool()>& done, SimTime deadline);

  std::uint64_t ticks_executed() const { return ticks_; }
  std::size_t pending_events() const { return events_.size(); }
  std::size_t component_count() const { return components_.size(); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-break for FIFO ordering at equal times
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  /// A registered component and its dispatch schedule.
  struct Dispatch {
    TickComponent* component;
    SimTime next;  // next due dispatch
    SimTime last;  // previous dispatch time (for dt)
  };

  void fire_due_events();

  SimTime now_ = 0;
  SimDuration tick_length_;
  std::uint64_t ticks_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Dispatch> components_;  ///< registration order
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
};

}  // namespace arv::sim
