#include "src/container/host.h"

#include "src/util/assert.h"

namespace arv::container {
namespace {

mem::Config with_ram(mem::Config config, Bytes ram) {
  config.total_ram = ram;
  return config;
}

}  // namespace

bool Host::quiescent() const {
  return engine_.pending_events() == 0 &&
         engine_.component_count() == 3 &&  // scheduler + memory + monitor only
         trace_ == nullptr && monitor_.registered_count() == 0 &&
         !monitor_.stalled() && !memory_.kswapd_active() &&
         memory_.free_memory() >= memory_.watermarks().low &&
         scheduler_.idle();
}

void Host::advance_idle(SimTime to) {
  ARV_ASSERT_MSG(quiescent(), "advance_idle on a non-quiescent host");
  if (to <= engine_.now()) {
    return;
  }
  scheduler_.accrue_idle(to - engine_.now(), config_.tick);
  engine_.advance_clock(to);
}

Host::Host(const HostConfig& config)
    : config_(config),
      engine_(config.tick),
      tree_(config.cpus),
      scheduler_(tree_, config.cpus),
      memory_(tree_, with_ram(config.mem, config.ram)),
      processes_(),
      monitor_(engine_, tree_, scheduler_, memory_),
      sysfs_(processes_, tree_, scheduler_, memory_, monitor_) {
  engine_.add_component(&scheduler_);
  engine_.add_component(&memory_);
  engine_.add_component(&monitor_);
  if (config.enable_tracing) {
    trace_ = std::make_unique<obs::TraceRecorder>(config.trace);
    trace_->add_counter("sim.ticks", "", [this] {
      return static_cast<std::int64_t>(engine_.ticks_executed());
    });
    scheduler_.register_trace(*trace_);
    memory_.register_trace(*trace_);
    monitor_.set_trace(trace_.get());
    sysfs_.attach_trace(trace_.get());
    // Registered last: samples see the tick's fully-updated state.
    engine_.add_component(trace_.get());
  }
}

}  // namespace arv::container
