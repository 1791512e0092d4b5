// Synchronization primitives for simulation processes.
//
// All primitives are single-threaded (the event loop is the only executor);
// "blocking" means suspending the coroutine until another process schedules
// it again via the engine queue. Wakeups are enqueued at the current
// simulated time rather than resumed inline, keeping execution order
// deterministic and re-entrancy-free.
//
// Cancellation safety: every waiter list is a sim::WaitQueue
// (sim/wait_pool.hpp) of pooled WaitRecord handles, not raw coroutine
// handles. If a waiting coroutine is destroyed while suspended (its Task
// dropped mid-wait), the queue's awaiter marks the record dead; wakes skip
// dead records and the engine drops already-queued wakeups whose guard went
// dead. A Semaphore permit or Channel item that was already handed to a
// subsequently-destroyed waiter is passed on to the next live waiter instead
// of being lost. Primitives must outlive their waiters.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "sim/causal.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace vmstorm::sim {

/// One-shot broadcast event. set() wakes every current and future waiter.
/// `trace_name` labels the wait edges this primitive records.
class Event {
 public:
  explicit Event(Engine& engine, const char* trace_name = "sim.event")
      : waiters_(engine, trace_name) {}

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    waiters_.wake_all();
  }

  auto wait() { return waiters_.wait(set_); }

  std::size_t waiting() const { return waiters_.waiting(); }

 private:
  bool set_ = false;
  WaitQueue waiters_;
};

/// Counting semaphore with FIFO wakeup order. A waiter destroyed while
/// suspended is skipped; if a permit was already handed to it, the permit is
/// re-released so later waiters are not starved.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t initial,
            const char* trace_name = "sim.semaphore")
      : count_(initial), waiters_(engine, trace_name) {}

  auto acquire() {
    struct Acquire : WaitQueue::Awaiter {
      Semaphore* sem;
      Acquire(Semaphore* s, bool ready) : Awaiter(s->waiters_, ready), sem(s) {}
      ~Acquire() {
        // Destroyed with a permit already in flight to us: hand it on.
        if (grant_abandoned()) sem->release();
      }
    };
    const bool ready = count_ > 0;
    if (ready) --count_;
    return Acquire{this, ready};
  }

  /// The permit is handed directly to the oldest live waiter, if any.
  void release() {
    if (!waiters_.wake_one()) ++count_;
  }

  std::size_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.waiting(); }

 private:
  std::size_t count_;
  WaitQueue waiters_;
};

/// Unbounded single-direction channel of T. Multiple producers, multiple
/// consumers (FIFO on both sides).
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine, const char* trace_name = "sim.channel")
      : waiters_(engine, trace_name) {}

  void push(T value) {
    // vmlint:allow(hot-path-alloc) unbounded channel buffer by design;
    // a fixed-capacity ring variant is the escape's exit path.
    items_.push_back(std::move(value));
    waiters_.wake_one();
  }

  /// Awaitable pop; suspends until an item is available.
  Task<T> pop() {
    struct Pop : WaitQueue::Awaiter {
      Channel* ch;
      explicit Pop(Channel* c) : Awaiter(c->waiters_, /*ready=*/false), ch(c) {}
      ~Pop() {
        // An item was already routed to us; wake another consumer for it.
        if (grant_abandoned() && !ch->items_.empty()) ch->waiters_.wake_one();
      }
    };
    // Under multiple consumers a wakeup can race with another consumer; loop.
    while (items_.empty()) co_await Pop{this};
    T v = std::move(items_.front());
    items_.pop_front();
    co_return v;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  std::deque<T> items_;
  WaitQueue waiters_;
};

/// Spawns all tasks and waits for every one to finish. Exceptions from
/// children propagate (the first one encountered in join order).
Task<void> when_all(Engine& engine, std::vector<Task<void>> tasks);

}  // namespace vmstorm::sim
