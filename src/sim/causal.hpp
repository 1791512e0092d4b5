// Causal-tracing hooks for the simulator: span scopes, wait-edge recording
// and span handoff at wake sites.
//
// Components open their spans with SpanScope. The primitives in sync.hpp /
// resource.hpp / storage::Disk call the wait helpers when a coroutine blocks
// on a shared resource and when the holder releases it. A resumed waiter
// leaves behind a "wait" cost event spanning the blocked interval, annotated
// with the span that held the resource, and a Chrome flow arrow from
// releaser to waiter when they belong to different spans. With no Recorder
// attached (or tracing disabled) every hook reduces to a null check — the
// simulation itself never branches on tracing, so enabling a tracer cannot
// change event order.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"

namespace vmstorm::sim {

/// The engine's tracer when a Recorder is attached and tracing is on,
/// else nullptr.
inline obs::Tracer* live_tracer(const Engine& engine) {
  obs::Recorder* rec = engine.recorder();
  return (rec != nullptr && rec->trace.enabled()) ? &rec->trace : nullptr;
}

/// The one way to open a span. Construction opens a child of the engine's
/// current span and makes it current; finish() records it and makes the
/// parent current again. Any other exit from the owning frame (an early
/// return, an exception, destruction while suspended) records nothing and
/// restores the parent only while this span is still current, so a frame
/// destroyed from another coroutine leaves that coroutine's span alone.
/// Nothing is needed across co_await: every resumption restores the span
/// that was current when it was queued.
///
/// With tracing off no id is allocated, the engine's span is never written
/// and the scope tests false. Sites write `if (span) span.finish(...)` so
/// that they build no argument list either.
class SpanScope {
 public:
  explicit SpanScope(Engine& engine)
      : engine_(engine), tracer_(live_tracer(engine)) {
    if (tracer_ == nullptr) return;
    start_ = engine.now_seconds();
    parent_ = engine.current_span();
    id_ = tracer_->new_span(parent_);
    engine.set_current_span(id_);
  }
  ~SpanScope() {
    if (tracer_ != nullptr && engine_.current_span() == id_) {
      engine_.set_current_span(parent_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// True while the span is open with tracing on.
  explicit operator bool() const { return tracer_ != nullptr; }
  obs::SpanId id() const { return id_; }

  /// Records the span over [open time, now) and restores the parent.
  void finish(std::uint32_t lane, std::string_view cat, std::string_view name,
              obs::TraceArgs args = {}) {
    finish_at(engine_.now_seconds(), lane, cat, name, args);
  }

  /// Records the span over [open time, end) and restores the parent: a
  /// phase ends with its slowest instance, not when run() has drained the
  /// background flushers.
  void finish_at(double end, std::uint32_t lane, std::string_view cat,
                 std::string_view name, obs::TraceArgs args = {}) {
    if (tracer_ == nullptr) return;
    tracer_->complete_span(start_, end - start_, lane, cat, name, id_, parent_,
                           args);
    engine_.set_current_span(parent_);
    tracer_ = nullptr;
  }

 private:
  Engine& engine_;
  obs::Tracer* tracer_;
  double start_ = 0;
  obs::SpanId parent_ = 0;
  obs::SpanId id_ = 0;
};

/// Creates a pooled wait record for handle `h`, capturing the suspending
/// coroutine's span context and the time it blocked.
inline WaitRef make_wait_record(Engine& engine, std::coroutine_handle<> h) {
  return engine.wait_pool().make(h, engine.current_span(),
                                 engine.now_seconds());
}

/// Marks `rec` as released by the current span and schedules its wakeup,
/// restoring the waiter's own span context. Emits the 's' half of a Chrome
/// flow arrow when the releaser belongs to a different span (a genuine
/// cross-coroutine handoff).
inline void wake_waiter(Engine& engine, const WaitRef& rec) {
  rec->waker_span = engine.current_span();
  if (obs::Tracer* tr = live_tracer(engine)) {
    if (rec->waker_span != rec->span) {
      // The arrow belongs to the waiter's span tree: under sampling it is
      // kept or dropped with the waiter, never half-recorded.
      rec->flow = tr->flow_begin(engine.now_seconds(), 0, "wake", rec->span);
    }
  }
  const std::uint64_t seq =
      engine.schedule_after(0, rec->handle, alive_guard(rec), rec->span);
  if (Auditor* a = engine.auditor()) a->on_wakeup_scheduled(seq, rec);
}

/// Records the wait edge for a waiter that just resumed: the blocked
/// interval as a "wait" cost event with the holder's span, plus the 'f'
/// half of the flow arrow when one was opened. `resource` names the thing
/// waited on ("sim.semaphore", "disk.dirty", "mirror.inflight", ...).
inline void record_wait_edge(Engine& engine, const WaitRecord& rec,
                             const char* resource, std::uint32_t lane = 0) {
  obs::Tracer* tr = live_tracer(engine);
  if (tr == nullptr) return;
  const double now = engine.now_seconds();
  const double waited = now - rec.wait_since;
  if (waited > 0) {
    tr->complete_in(rec.wait_since, waited, lane, "wait", resource,
                    engine.current_span(),
                    {obs::TraceArg::uint("holder", rec.waker_span)});
  }
  if (rec.flow != 0) tr->flow_end(now, lane, "wake", rec.flow);
}

// ---- WaitQueue members that touch the engine (sim/wait_pool.hpp) ----------

inline void WaitQueue::Awaiter::await_suspend(std::coroutine_handle<> h) {
  rec_ = make_wait_record(*queue_->engine_, h);
  // vmlint:allow(hot-path-alloc) one entry per parked coroutine, reused once
  // the queue drains; an intrusive list through the pool is the exit path.
  queue_->parked_.push_back({rec_, need_});
}

inline void WaitQueue::Awaiter::await_resume() noexcept {
  if (!rec_) return;
  rec_->resumed = true;
  record_wait_edge(*queue_->engine_, *rec_, queue_->resource_);
}

template <typename Admit>
void WaitQueue::wake_while(Admit admit) {
  wake(admit, /*one=*/false);
}

inline void WaitQueue::wake_all() {
  wake([](std::uint64_t) { return true; }, /*one=*/false);
}

inline bool WaitQueue::wake_one() {
  return wake([](std::uint64_t) { return true; }, /*one=*/true);
}

template <typename Admit>
bool WaitQueue::wake(Admit admit, bool one) {
  bool woke = false;
  while (head_ < parked_.size() && !(one && woke)) {
    Parked& front = parked_[head_];
    if (front.rec->alive) {
      if (!admit(front.need)) break;
      if (one) front.rec->granted = true;
      wake_waiter(*engine_, front.rec);
      woke = true;
    }
    front.rec.reset();  // the queue lets go now, so dead slots recycle here
    ++head_;
  }
  if (head_ == parked_.size()) {
    parked_.clear();
    head_ = 0;
  } else if (head_ * 2 >= parked_.size()) {
    parked_.erase(parked_.begin(),
                  parked_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return woke;
}

}  // namespace vmstorm::sim
