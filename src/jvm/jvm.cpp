#include "src/jvm/jvm.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/log.h"

namespace arv::jvm {
namespace {

/// A JVM that needs more than this many consecutive collections without
/// mutator progress is out of memory for real.
constexpr int kMaxBackToBackGcs = 8;

}  // namespace

Jvm::Jvm(container::Host& host, container::Container& target, JvmFlags flags,
         JavaWorkload workload)
    : host_(host),
      container_(target),
      pid_(target.spawn_process("java:" + workload.name)),
      flags_(flags),
      workload_(std::move(workload)),
      launch_(decide_launch(host, target, pid_, flags_, workload_)) {
  heap_ = std::make_unique<Heap>(host_.memory(), container_.cgroup(),
                                 launch_.max_heap, launch_.initial_heap);
  if (launch_.initial_virtual_max < launch_.max_heap) {
    heap_->set_virtual_max(launch_.initial_virtual_max);
  }
  stats_.start_time = host_.now();
  last_minor_end_ = host_.now();
  next_heap_poll_ = host_.now() + flags_.heap_poll_interval;
  host_.scheduler().attach(container_.cgroup(), this);
  attached_ = true;

  if ((trace_ = host_.trace()) != nullptr) {
    const std::string& scope = container_.name();
    trace_handles_.push_back(trace_->add_gauge("jvm.gc_workers", scope, [this] {
      return state_ == JvmState::kInGc ? gc_.active_workers() : 0;
    }));
    trace_handles_.push_back(trace_->add_gauge(
        "jvm.heap_used", scope, [this] { return heap_->used(); }));
    trace_handles_.push_back(trace_->add_gauge(
        "jvm.heap_committed", scope, [this] { return heap_->committed(); }));
    trace_handles_.push_back(trace_->add_gauge(
        "jvm.heap_virtual_max", scope, [this] { return heap_->virtual_max(); }));
    trace_handles_.push_back(trace_->add_counter(
        "jvm.minor_gcs", scope, [this] { return stats_.minor_gcs; }));
    trace_handles_.push_back(trace_->add_counter(
        "jvm.major_gcs", scope, [this] { return stats_.major_gcs; }));
    trace_handles_.push_back(trace_->add_gauge(
        "jvm.state", scope, [this] { return static_cast<int>(state_); }));
  }
}

Jvm::~Jvm() {
  if (attached_) {
    host_.scheduler().detach(container_.cgroup(), this);
  }
  if (trace_ != nullptr) {
    for (const obs::SeriesHandle handle : trace_handles_) {
      trace_->retire(handle);
    }
  }
}

int Jvm::runnable_threads() const {
  switch (state_) {
    case JvmState::kMutating:
      // Blocked on swap I/O: iowait consumes no CPU.
      if (host_.now() < stalled_until_) {
        return 0;
      }
      return workload_.mutator_threads;
    case JvmState::kInGc:
      if (host_.now() < stalled_until_) {
        return 0;
      }
      return gc_.active_workers();
    case JvmState::kCompleted:
    case JvmState::kOomError:
    case JvmState::kKilled:
      return 0;
  }
  return 0;
}

Bytes Jvm::live_target() const {
  return workload_.live_set +
         static_cast<Bytes>(static_cast<double>(stats_.allocated_total) *
                            workload_.live_fraction_of_alloc);
}

double Jvm::progress() const {
  return std::min(1.0, static_cast<double>(work_done_) /
                           static_cast<double>(workload_.total_work));
}

HeapSample Jvm::sample_heap() const {
  return HeapSample{host_.now(), heap_->used(), heap_->committed(),
                    heap_->virtual_max()};
}

void Jvm::apply_touch_stall(SimTime now, Bytes touched) {
  if (touched <= 0) {
    return;
  }
  const SimDuration stall = host_.memory().touch(container_.cgroup(), touched);
  if (stall > 0) {
    stalled_until_ = std::max(stalled_until_, now) + stall;
    stats_.stall_time += stall;
  }
}

void Jvm::terminate(SimTime now, JvmState state) {
  state_ = state;
  stats_.end_time = now;
  stats_.completed = state == JvmState::kCompleted;
  stats_.oom_error = state == JvmState::kOomError;
  stats_.killed = state == JvmState::kKilled;
}

void Jvm::fail_oom(SimTime now) {
  ARV_LOG(kInfo, "jvm", "%s: java.lang.OutOfMemoryError (live=%lld, limit=%lld)",
          workload_.name.c_str(), static_cast<long long>(live_target()),
          static_cast<long long>(heap_->virtual_max()));
  terminate(now, JvmState::kOomError);
}

void Jvm::consume(SimTime now, SimDuration dt, CpuTime grant) {
  if (finished()) {
    return;
  }
  if (heap_->oom_killed()) {
    terminate(now, JvmState::kKilled);
    return;
  }
  if (flags_.kind == JvmKind::kAdaptive && flags_.elastic_heap &&
      now >= next_heap_poll_) {
    poll_elastic_heap(now);
  }
  if (now < stalled_until_ || grant <= 0) {
    return;
  }
  if (state_ == JvmState::kMutating) {
    mutate(now, dt, grant);
  } else if (state_ == JvmState::kInGc) {
    advance_gc(now, dt, grant);
  }
}

void Jvm::mutate(SimTime now, SimDuration /*dt*/, CpuTime grant) {
  work_done_ += grant;
  const bool work_complete = work_done_ >= workload_.total_work;

  // Allocation at the workload rate, bump-pointer into eden.
  const Bytes alloc = grant * workload_.alloc_per_cpu_sec / units::sec;
  stats_.allocated_total += alloc;
  if (!heap_->allocate(alloc)) {
    if (work_complete) {
      // The program is done; the last allocation burst needs no collection.
      terminate(now, JvmState::kCompleted);
      return;
    }
    // Allocation failure: fill what fits, collect, retry the rest after.
    const Bytes room = heap_->eden_room();
    heap_->allocate(room);
    pending_alloc_ += alloc - room;
    start_minor(now);
    return;
  }

  // Working-set traffic drives swap-ins when pages were reclaimed.
  const Bytes touched = static_cast<Bytes>(
      static_cast<double>(live_target()) * workload_.touch_rate *
      static_cast<double>(grant) / static_cast<double>(units::sec));
  apply_touch_stall(now, touched);

  if (work_complete) {
    terminate(now, JvmState::kCompleted);
  }
}

void Jvm::start_minor(SimTime now) {
  const int threads =
      decide_gc_threads(host_, pid_, flags_, launch_.gc_worker_pool,
                        workload_.mutator_threads, heap_->committed());
  pre_gc_eden_ = heap_->eden_used();
  pre_gc_survivor_ = heap_->survivor_used();
  const Bytes live = static_cast<Bytes>(static_cast<double>(pre_gc_eden_) *
                                        workload_.survival_ratio) +
                     pre_gc_survivor_;
  gc_.begin(GcPhase::kMinor, now, threads, live, workload_.gc_cost_per_mib,
            workload_.gc_fixed_cost, workload_.gc_alpha, workload_.gc_beta);
  gc_trace_.push_back({now, threads, GcPhase::kMinor});
  state_ = JvmState::kInGc;
}

void Jvm::start_major(SimTime now) {
  const int threads =
      decide_gc_threads(host_, pid_, flags_, launch_.gc_worker_pool,
                        workload_.mutator_threads, heap_->committed());
  // A major collection scans the full live heap; majors cost more per byte
  // (compaction), modeled as 2x the scan cost.
  const Bytes live = heap_->old_used() + heap_->survivor_used();
  gc_.begin(GcPhase::kMajor, now, threads, live, 2 * workload_.gc_cost_per_mib,
            2 * workload_.gc_fixed_cost, workload_.gc_alpha, workload_.gc_beta);
  gc_trace_.push_back({now, threads, GcPhase::kMajor});
  state_ = JvmState::kInGc;
}

void Jvm::advance_gc(SimTime now, SimDuration dt, CpuTime grant) {
  const Bytes scanned = gc_.advance(grant, dt);
  apply_touch_stall(now, scanned);
  if (gc_.done()) {
    finish_gc(now);
  }
}

void Jvm::finish_gc(SimTime now) {
  const GcSessionResult result = gc_.finish(now);
  if (result.phase == GcPhase::kMinor) {
    stats_.minor_gcs += 1;
    stats_.minor_gc_time += result.end - result.start;
    after_minor(now, result);
  } else {
    stats_.major_gcs += 1;
    stats_.major_gc_time += result.end - result.start;
    after_major(now, result);
  }
}

void Jvm::after_minor(SimTime now, const GcSessionResult& result) {
  // Survivor aging (simplified to one round): previous survivors promote,
  // this eden's survivors stay in the survivor space.
  const Bytes survivors = static_cast<Bytes>(
      static_cast<double>(pre_gc_eden_) * workload_.survival_ratio);
  const Bytes promoted = pre_gc_survivor_;
  heap_->finish_minor(survivors, promoted);

  if (heap_->old_used() > heap_->old_committed()) {
    // Promotion overflow: grow the old generation if OldMax permits,
    // otherwise fall back to a full collection. (resize_old's never-below-
    // used floor must not be used to sneak past OldMax.)
    if (heap_->old_used() > heap_->old_max()) {
      start_major(now);
      return;
    }
    heap_->resize_old(static_cast<Bytes>(
        static_cast<double>(heap_->old_used()) * kOldHeadroom));
    if (heap_->oom_killed()) {
      terminate(now, JvmState::kKilled);
      return;
    }
    if (heap_->old_used() > heap_->old_committed()) {
      start_major(now);
      return;
    }
  }

  // HotSpot ergonomics step.
  MinorObservation obs;
  obs.pause = result.end - result.start;
  obs.mutator_interval = std::max<SimDuration>(0, result.start - last_minor_end_);
  obs.young_committed = heap_->young_committed();
  obs.old_committed = heap_->old_committed();
  obs.old_used = heap_->old_used();
  obs.old_max = heap_->old_max();
  const SizingDecision decision = sizing_.after_minor(obs);
  heap_->resize_young(decision.young_target);
  heap_->resize_old(decision.old_target);
  if (heap_->oom_killed()) {
    terminate(now, JvmState::kKilled);
    return;
  }

  last_minor_end_ = now;
  drain_pending_allocation(now);
}

void Jvm::after_major(SimTime now, const GcSessionResult& /*result*/) {
  // Compaction: the old generation collapses to the workload's live data.
  const Bytes old_live = std::min(heap_->old_used(), live_target());
  heap_->finish_major(old_live, heap_->survivor_used());

  if (heap_->old_used() > heap_->old_max()) {
    // Before giving up, an elastic heap re-reads effective memory at the
    // failure edge — the view may have outgrown VirtualMax since the last
    // 10-second poll (§4.2's expansion path).
    if (flags_.kind == JvmKind::kAdaptive && flags_.elastic_heap) {
      poll_elastic_heap(now);
    }
    if (heap_->old_used() > heap_->old_max()) {
      // Even a full collection cannot fit the live set under the current
      // limit: OutOfMemoryError (the JDK-9-in-Figure-2b failure mode).
      fail_oom(now);
      return;
    }
  }

  MajorObservation obs;
  obs.old_live = heap_->old_used();
  obs.old_committed = heap_->old_committed();
  obs.young_committed = heap_->young_committed();
  const SizingDecision decision = sizing_.after_major(obs);
  heap_->resize_old(decision.old_target);
  if (heap_->oom_killed()) {
    terminate(now, JvmState::kKilled);
    return;
  }
  drain_pending_allocation(now);
}

void Jvm::drain_pending_allocation(SimTime now) {
  if (pending_alloc_ > 0 && !heap_->allocate(pending_alloc_)) {
    // Eden still too small for the outstanding allocation: first let the
    // old generation give back its free headroom (committed-but-unused
    // space must not block an allocation), then grow young to fit.
    heap_->resize_old(static_cast<Bytes>(
        static_cast<double>(heap_->old_used()) * 1.05));
    const Bytes needed = static_cast<Bytes>(
        static_cast<double>(pending_alloc_ + heap_->eden_used() +
                            heap_->survivor_used()) /
        Heap::kEdenFraction * 1.25);
    heap_->resize_young(std::max(needed, heap_->young_committed()));
    if (heap_->oom_killed()) {
      terminate(now, JvmState::kKilled);
      return;
    }
    if (!heap_->allocate(pending_alloc_)) {
      ++back_to_back_gcs_;
      if (back_to_back_gcs_ >= kMaxBackToBackGcs) {
        fail_oom(now);
        return;
      }
      start_major(now);
      return;
    }
  }
  pending_alloc_ = 0;
  back_to_back_gcs_ = 0;
  state_ = JvmState::kMutating;
}

void Jvm::poll_elastic_heap(SimTime now) {
  next_heap_poll_ = now + flags_.heap_poll_interval;
  // §4.2: "we use effective memory from the sys_namespace as VirtualMax".
  const Bytes e_mem =
      static_cast<Bytes>(host_.sysfs().sysconf(pid_, vfs::Sysconf::kPhysPages)) *
      units::page;
  if (e_mem <= 0) {
    return;
  }
  const ResizeOutcome outcome = heap_->set_virtual_max(e_mem);
  if (outcome == ResizeOutcome::kGcRequired && state_ == JvmState::kMutating) {
    // Case 3: used space crosses the new limit — collect until it fits
    // (repeats at the next poll if one collection is not enough).
    start_major(now);
  }
}

}  // namespace arv::jvm
