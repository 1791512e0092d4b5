#include "sim/engine.hpp"

#include <cassert>
#include <cstdio>

#include "obs/selfprof.hpp"
#include "sim/audit.hpp"
#include "sim/causal.hpp"

namespace vmstorm::sim {

namespace {

/// Detached wrapper coroutine driving a spawned Task. Created suspended
/// (so spawn() can enqueue its start deterministically); the frame
/// self-destroys after completion (final_suspend = suspend_never).
struct DetachedTask {
  struct promise_type : detail::PooledFrame {
    DetachedTask get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

DetachedTask detached_body(Task<void> task, std::shared_ptr<JoinState> state,
                           std::size_t* live_tasks) {
  try {
    co_await std::move(task);
  } catch (...) {
    state->exception = std::current_exception();
  }
  state->done = true;
  --*live_tasks;
  state->waiters.wake_all();
}

}  // namespace

Task<void> JoinHandle::join() {
  assert(state_ && "joining an invalid handle");
  co_await state_->waiters.wait(state_->done);
  if (state_->exception) std::rethrow_exception(state_->exception);
}

std::uint64_t Engine::schedule_at(SimTime t, std::coroutine_handle<> h,
                                  WaitGuard alive, std::uint64_t span) {
  assert(t >= now_ && "cannot schedule in the past");
  if (span == kInheritSpan) span = current_span_;
  const std::uint64_t seq = next_seq_++;
  queue_.enqueue(QueuedEvent{t, seq, h, span, std::move(alive)});
  if (queue_.size() > queue_depth_hw_) queue_depth_hw_ = queue_.size();
  return seq;
}

// vmlint:allow(span-coverage) sleep is a modeled delay, not contention: the
// sleeping span is doing its own (simulated) work, so emitting a wait edge
// here would bill compute phases as waits and skew critical-path attribution.
void Engine::SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  rec = make_wait_record(*engine, h);
  const std::uint64_t seq =
      engine->schedule_at(wake_at, h, alive_guard(rec));
  if (Auditor* a = engine->auditor()) a->on_wakeup_scheduled(seq, rec);
}

JoinHandle Engine::spawn(Task<void> task) {
  auto state = std::make_shared<JoinState>(*this);
  ++live_tasks_;
  DetachedTask d = detached_body(std::move(task), state, &live_tasks_);
  // The detached frame is engine-owned and self-destroys only on completion,
  // so its startup resumption needs no liveness guard.
  // vmlint:allow(unguarded-waiter-schedule) detached frame cannot be destroyed externally
  schedule_after(0, d.handle);
  return JoinHandle(state);
}

std::uint64_t Engine::run(SimTime until) {
  // The caller's span context is restored on exit so nested run() calls (and
  // phase code that set a span around the loop) see their own span again.
  const std::uint64_t outer_span = current_span_;
  // Only the outermost run() profiles; a nested run() (a component driving
  // the loop re-entrantly from inside a resumption) is already inside the
  // outer call's kResume bucket and would double-charge every phase.
  obs::SelfProfiler* const prof = run_depth_ == 0 ? profiler_ : nullptr;
  ++run_depth_;
  const double run_t0 =
      prof != nullptr ? obs::SelfProfiler::wall_now() : 0.0;
  std::uint64_t n = 0;
  bool until_reached = false;
  while (!queue_.empty()) {
    double t0 = prof != nullptr ? obs::SelfProfiler::wall_now() : 0.0;
    const QueuedEvent* head = queue_.peek();
    if (until >= 0 && head->time > until) {
      if (prof != nullptr) {
        prof->charge(obs::SelfProfiler::kQueueOps,
                     obs::SelfProfiler::wall_now() - t0);
      }
      // The clock only moves forward: a run() to a time already behind it
      // stops without touching it.
      if (until > now_) now_ = until;
      until_reached = true;
      break;
    }
    QueuedEvent ev = queue_.dequeue();
    if (prof != nullptr) {
      prof->charge(obs::SelfProfiler::kQueueOps,
                   obs::SelfProfiler::wall_now() - t0);
    }
    assert(ev.time >= now_);
    if (!ev.guard.unconditional() && !ev.guard.valid()) {
      // The waiter was destroyed after this wakeup was queued; resuming the
      // handle would be a use-after-free. Drop the event without advancing
      // simulated time past it (time still moves to ev.time for ordering).
      now_ = ev.time;
      ++cancelled_wakeups_;
      if (auditor_ != nullptr) {
        t0 = prof != nullptr ? obs::SelfProfiler::wall_now() : 0.0;
        auditor_->on_event(ev.seq, ev.time, /*dropped=*/true);
        if (prof != nullptr) {
          prof->charge(obs::SelfProfiler::kAuditor,
                       obs::SelfProfiler::wall_now() - t0);
        }
      }
      continue;
    }
    now_ = ev.time;
    if (auditor_ != nullptr) {
      t0 = prof != nullptr ? obs::SelfProfiler::wall_now() : 0.0;
      auditor_->on_event(ev.seq, ev.time, /*dropped=*/false);
      if (prof != nullptr) {
        prof->charge(obs::SelfProfiler::kAuditor,
                     obs::SelfProfiler::wall_now() - t0);
      }
    }
    current_span_ = ev.span;
    ++n;
    ++events_processed_;
    t0 = prof != nullptr ? obs::SelfProfiler::wall_now() : 0.0;
    ev.handle.resume();
    if (prof != nullptr) {
      prof->charge(obs::SelfProfiler::kResume,
                   obs::SelfProfiler::wall_now() - t0);
    }
  }
  current_span_ = outer_span;
  --run_depth_;
  if (prof != nullptr) {
    prof->charge_run(obs::SelfProfiler::wall_now() - run_t0);
  }
  if (!until_reached && live_tasks_ > 0) {
    std::fprintf(stderr,
                 "[%10.6f] [WARN ] [sim] event queue drained with %zu live "
                 "task(s) still blocked\n",
                 now_seconds(), live_tasks_);
  }
  return n;
}

}  // namespace vmstorm::sim
