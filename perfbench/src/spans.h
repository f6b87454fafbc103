// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call the benchmark makes into a layer: a
// Cluster::step() or Engine::step(), one cluster component's tick(), one
// sysfs read or write, one container create or stop. Spans nest: a span
// opened while another is open records it as its parent, and a layer's self
// time is its span's duration minus the durations of its children. Nothing
// under src/ is instrumented; every span wraps a call the benchmark itself
// issues, and cluster components are timed through TimedComponent, a
// forwarding TickComponent registered in the component's place.
//
// With a null Tracer every Scope is inert (one branch), so the untraced run
// executes the same code path.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/engine.h"

namespace arv::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Duration and self-time totals of every span sharing one name.
struct SpanTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<std::int64_t> durations_ns;  ///< one entry per span
};

class Tracer {
 public:
  /// Span name -> small integer id (names are interned once, at set-up).
  int intern(const std::string& name);

  int begin(int name);
  void end(int span);

  /// RAII span. Inert when constructed with a null tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, int name)
        : tracer_(tracer), span_(tracer == nullptr ? -1 : tracer->begin(name)) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->end(span_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int span_;
  };

  /// Per-name totals with self time (duration minus children's durations).
  std::map<std::string, SpanTotals> totals() const;

  /// Write every span as CSV: id,parent,name,start_ns,end_ns. Start times
  /// are relative to the first span. Returns false on an I/O error.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    int name = 0;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of currently open span indices
};

/// Forwards every TickComponent call to `inner`, timing tick() as a span.
/// Registered with the cluster in the inner component's place and order, so
/// dispatch (period re-query, registration-order ties) is unchanged.
class TimedComponent final : public sim::TickComponent {
 public:
  TimedComponent(sim::TickComponent& inner, Tracer* tracer, int span)
      : inner_(inner), tracer_(tracer), span_(span) {}

  void tick(SimTime now, SimDuration dt) override {
    Tracer::Scope scope(tracer_, span_);
    inner_.tick(now, dt);
  }
  std::string name() const override { return inner_.name(); }
  SimDuration tick_period() const override { return inner_.tick_period(); }

 private:
  sim::TickComponent& inner_;
  Tracer* tracer_;
  int span_;
};

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double percentile(std::vector<std::int64_t> values, double p);

/// Percentile, in microseconds, of the durations of the spans named `name`;
/// 0 when there are none.
double span_percentile_us(const std::map<std::string, SpanTotals>& totals,
                          const std::string& name, double p);

}  // namespace arv::perfbench
