#include "src/sim/engine.h"

#include <algorithm>

#include "src/util/assert.h"

namespace arv::sim {

Engine::Engine(SimDuration tick_length) : tick_length_(tick_length) {
  ARV_ASSERT_MSG(tick_length > 0, "tick length must be positive");
}

void Engine::add_component(TickComponent* component) {
  ARV_ASSERT(component != nullptr);
  ARV_ASSERT_MSG(std::none_of(components_.begin(), components_.end(),
                              [component](const Dispatch& entry) {
                                return entry.component == component;
                              }),
                 "component registered twice");
  // First dispatch on the tick after registration: mid-step now_ is already
  // the current tick, between steps it is the last completed one — either
  // way now_ + tick_length_ is the next tick processed.
  components_.push_back(Dispatch{component, now_ + tick_length_, now_});
}

void Engine::schedule_at(SimTime when, std::function<void()> fn) {
  ARV_ASSERT_MSG(when >= now_, "cannot schedule events in the past");
  events_.push(Event{when, next_seq_++, std::move(fn)});
}

void Engine::schedule_after(SimDuration delay, std::function<void()> fn) {
  ARV_ASSERT(delay >= 0);
  schedule_at(now_ + delay, std::move(fn));
}

void Engine::fire_due_events() {
  while (!events_.empty() && events_.top().when <= now_) {
    // Copy out before pop: the callback may schedule new events, which
    // mutates the queue.
    auto fn = events_.top().fn;
    events_.pop();
    fn();
  }
}

void Engine::step() {
  now_ += tick_length_;
  ++ticks_;
  fire_due_events();
  // By index, not by iterator: a tick() may add a component, which appends
  // (and may reallocate); the newcomer is due next tick, so it is skipped.
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].next > now_) {
      continue;
    }
    TickComponent* component = components_[i].component;
    component->tick(now_, now_ - components_[i].last);
    const SimDuration period = std::max(component->tick_period(), tick_length_);
    components_[i].next = now_ + period;
    components_[i].last = now_;
  }
}

void Engine::advance_clock(SimTime to) {
  ARV_ASSERT_MSG(to >= now_, "cannot rewind the clock");
  if (to == now_) {
    return;
  }
  const SimDuration gap = to - now_;
  ARV_ASSERT_MSG(gap % tick_length_ == 0, "clock jumps are whole ticks");
  ARV_ASSERT_MSG(events_.empty() || events_.top().when > to,
                 "cannot jump past a due one-shot event");
  ticks_ += static_cast<std::uint64_t>(gap / tick_length_);
  now_ = to;
  // Entries that fell due inside the gap are re-timed as if they had fired
  // as no-ops.
  for (Dispatch& entry : components_) {
    if (entry.next <= now_) {
      entry.next = now_ + tick_length_;
      entry.last = now_;
    }
  }
}

void Engine::run_for(SimDuration duration) {
  ARV_ASSERT(duration >= 0);
  const SimTime deadline = now_ + duration;
  while (now_ < deadline) {
    step();
  }
}

bool Engine::run_until(const std::function<bool()>& done, SimTime deadline) {
  while (now_ < deadline) {
    step();
    if (done()) {
      return true;
    }
  }
  return done();
}

}  // namespace arv::sim
