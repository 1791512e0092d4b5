// Deterministic discrete-event simulation engine.
//
// A single-threaded event loop over (time, sequence) ordered coroutine
// resumptions. Equal-time events fire in schedule order, so a simulation is
// bit-reproducible for a given seed and spawn order.
//
// Usage:
//   sim::Engine e;
//   auto h = e.spawn(my_process(e));
//   e.run();                       // until no events remain
//   double t = e.now_seconds();
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/wait_pool.hpp"

namespace vmstorm::obs {
struct Recorder;
class SelfProfiler;
}  // namespace vmstorm::obs

namespace vmstorm::sim {

class Auditor;
class Engine;

/// Shared completion state of a spawned task.
struct JoinState {
  explicit JoinState(Engine& engine) : waiters(engine, "sim.join") {}
  bool done = false;
  std::exception_ptr exception;
  WaitQueue waiters;
};

/// Handle returned by Engine::spawn. Join with `co_await handle.join()` from
/// inside the simulation, or poll done() from outside after run().
class JoinHandle {
 public:
  JoinHandle() = default;
  explicit JoinHandle(std::shared_ptr<JoinState> s) : state_(std::move(s)) {}

  bool valid() const { return static_cast<bool>(state_); }
  bool done() const { return state_ && state_->done; }

  /// Rethrows the task's exception, if it ended with one.
  void rethrow() const {
    if (state_ && state_->exception) std::rethrow_exception(state_->exception);
  }

  Task<void> join();

 private:
  std::shared_ptr<JoinState> state_;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }
  double now_seconds() const { return to_seconds(now_); }

  /// Sentinel span argument to schedule_at: the queued resumption inherits
  /// the span that is current at schedule time.
  static constexpr std::uint64_t kInheritSpan = ~std::uint64_t{0};

  /// Causal span context. Every queued resumption captures a span id; run()
  /// restores it before resuming the coroutine, so a process keeps its span
  /// across co_await / sleep / spawn without any per-frame storage. 0 means
  /// "no span" (tracing off or top-level code).
  std::uint64_t current_span() const { return current_span_; }
  void set_current_span(std::uint64_t span) { current_span_ = span; }

  /// Enqueues a coroutine resumption at absolute time t (>= now). The
  /// optional `alive` guard is re-checked just before resumption; a wakeup
  /// whose guard reads dead (or generation-stale) is dropped — the waiter
  /// was destroyed while the wakeup was in flight. Wakeups for suspended
  /// waiters held in shared lists must pass a guard — see WaitRecord /
  /// alive_guard in sim/wait_pool.hpp. `span` is the span context restored
  /// when the event fires; the default inherits the span current at schedule
  /// time. Returns the queued event's sequence number (unique per engine),
  /// which audit hooks use to tie a scheduled wakeup to its dispatch.
  std::uint64_t schedule_at(SimTime t, std::coroutine_handle<> h,
                            WaitGuard alive = {},
                            std::uint64_t span = kInheritSpan);
  std::uint64_t schedule_after(SimTime dt, std::coroutine_handle<> h,
                               WaitGuard alive = {},
                               std::uint64_t span = kInheritSpan) {
    return schedule_at(now_ + dt, h, std::move(alive), span);
  }

  /// Awaitable: suspends the current process for dt simulated time.
  auto sleep(SimTime dt) { return SleepAwaiter{this, now_ + (dt < 0 ? 0 : dt)}; }
  auto sleep_until(SimTime t) { return SleepAwaiter{this, t < now_ ? now_ : t}; }
  auto sleep_seconds(double s) { return sleep(from_seconds(s)); }

  /// Starts a detached process. Its frame self-destroys on completion; the
  /// returned handle can be joined. The process begins running at the
  /// current simulated time, once the event loop gets to it.
  JoinHandle spawn(Task<void> task);

  /// Runs until the event queue is empty or `until` (if nonnegative) is
  /// reached. Returns the number of events processed.
  std::uint64_t run(SimTime until = -1);

  /// Number of spawned tasks that have not yet completed. A nonzero value
  /// after run() means processes are blocked on events nobody will set.
  std::size_t live_tasks() const { return live_tasks_; }

  std::uint64_t events_processed() const { return events_processed_; }

  /// Queued wakeups dropped because their waiter was destroyed first.
  std::uint64_t cancelled_wakeups() const { return cancelled_wakeups_; }

  // ---- Engine self-telemetry ---------------------------------------------
  // All counters below are functions of the seed and spawn order only (no
  // wall clock), so exporting them keeps same-seed byte-identity.

  /// Events ever enqueued (== the next sequence number).
  std::uint64_t events_scheduled() const { return next_seq_; }
  std::size_t queue_depth() const { return queue_.size(); }
  /// High-water mark of the event heap's depth.
  std::size_t queue_depth_high_water() const { return queue_depth_hw_; }

  std::uint64_t wait_records_created() const { return wait_pool_.created(); }
  std::uint64_t wait_records_live() const { return wait_pool_.live(); }
  std::uint64_t wait_records_live_high_water() const {
    return wait_pool_.live_high_water();
  }

  /// The engine's wait-record pool. All record construction goes through
  /// here (sim/causal.hpp make_wait_record, the sleep awaiter); the pool
  /// also carries the wait-record telemetry the getters above export.
  WaitPool& wait_pool() { return wait_pool_; }
  const WaitPool& wait_pool() const { return wait_pool_; }

  /// Host-side self-profiling attachment point (obs/selfprof.hpp). Null
  /// (the default) keeps the run loop free of wall-clock reads; attached,
  /// the outermost run() tiles its wall time into the profiler's phases.
  obs::SelfProfiler* profiler() const { return profiler_; }
  void set_profiler(obs::SelfProfiler* profiler) { profiler_ = profiler; }

  /// Observability attachment point. The engine itself only carries the
  /// pointer; instrumented components (and the causal-tracing hooks in
  /// sim/causal.hpp) reach their Recorder through here. Null (the default)
  /// disables all recording.
  obs::Recorder* recorder() const { return recorder_; }
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Runtime invariant auditing attachment point (sim/audit.hpp). Like the
  /// recorder, the engine only carries the pointer; null disables auditing.
  Auditor* auditor() const { return auditor_; }
  void set_auditor(Auditor* auditor) { auditor_ = auditor; }

  /// Awaiter for sleep()/sleep_until(), and the base of FifoServer's serve
  /// awaiter (sim/resource.hpp). Holds a liveness-guarded WaitRecord like
  /// every other blocking site: a coroutine destroyed mid-sleep marks the
  /// record dead and the engine drops the queued wakeup instead of
  /// resuming a freed frame (counted in cancelled_wakeups()).
  struct SleepAwaiter {
    Engine* engine;
    SimTime wake_at;
    WaitRef rec{};
    SleepAwaiter(Engine* e, SimTime t) : engine(e), wake_at(t) {}
    SleepAwaiter(const SleepAwaiter&) = delete;
    SleepAwaiter& operator=(const SleepAwaiter&) = delete;
    ~SleepAwaiter() {
      if (rec && !rec->resumed) rec->alive = false;
    }
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() noexcept {
      if (rec) rec->resumed = true;
    }
  };

 private:
  friend class JoinHandle;

  SimTime now_ = 0;
  std::uint64_t current_span_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t cancelled_wakeups_ = 0;
  std::size_t live_tasks_ = 0;
  std::size_t queue_depth_hw_ = 0;
  int run_depth_ = 0;  ///< only the outermost run() accumulates profile time
  obs::Recorder* recorder_ = nullptr;
  Auditor* auditor_ = nullptr;
  obs::SelfProfiler* profiler_ = nullptr;
  // Declared before queue_: guards held by still-queued events release their
  // pool references during ~queue_, so the pool must outlive the queue.
  WaitPool wait_pool_;
  EventQueue queue_;
};

}  // namespace vmstorm::sim
