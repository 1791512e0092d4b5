// Cancellation / destruction edge cases for the sync primitives — the
// scenarios the WaitRecord liveness guards exist for. Each test destroys a
// suspended coroutine frame directly (Task::release + handle.destroy), which
// under the old raw-handle waiter lists was a use-after-free on the next
// wakeup. Run these under the asan preset to prove the guards hold.
#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <coroutine>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace vmstorm::sim {
namespace {

// Starts a lazy task and returns its raw handle, transferring ownership to
// the caller (destroy it, or let it run to completion via the engine).
template <typename T>
std::coroutine_handle<> start_detached(Task<T> t) {
  auto h = t.release();
  h.resume();  // runs until the first suspension point
  return h;
}

Task<void> wait_on_event(Event& ev, int id, std::vector<int>* woken) {
  co_await ev.wait();
  woken->push_back(id);
}

TEST(EventEdge, SetDuringWaitWakesAtSetTime) {
  Engine e;
  Event ev(e);
  std::vector<int> woken;
  e.spawn(wait_on_event(ev, 1, &woken));
  e.spawn([](Engine& eng, Event& event) -> Task<void> {
    co_await eng.sleep(from_seconds(1.0));
    event.set();
    // Setting while a waiter is suspended must not resume it inline:
    // wakeups go through the queue, preserving deterministic ordering.
    EXPECT_TRUE(event.is_set());
  }(e, ev));
  e.run();
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_DOUBLE_EQ(e.now_seconds(), 1.0);
}

TEST(EventEdge, WaiterDestroyedBeforeWakeupIsSkipped) {
  Engine e;
  Event ev(e);
  std::vector<int> woken;
  auto doomed = start_detached(wait_on_event(ev, 1, &woken));
  e.spawn(wait_on_event(ev, 2, &woken));
  e.run();  // let waiter 2 reach the event
  ASSERT_EQ(ev.waiting(), 2u);
  doomed.destroy();  // waiter 1's frame is gone; its record must go dead
  EXPECT_EQ(ev.waiting(), 1u);
  ev.set();
  e.run();
  ASSERT_EQ(woken, (std::vector<int>{2}));
}

TEST(EventEdge, WaiterDestroyedAfterSetBeforeResumeIsSkipped) {
  Engine e;
  Event ev(e);
  std::vector<int> woken;
  auto doomed = start_detached(wait_on_event(ev, 1, &woken));
  ev.set();          // wakeup for the doomed waiter is now queued
  doomed.destroy();  // ...and must be dropped by the engine guard
  e.run();
  EXPECT_TRUE(woken.empty());
  EXPECT_EQ(e.cancelled_wakeups(), 1u);
}

Task<void> acquire_and_hold(Engine& e, Semaphore& sem, int id,
                            std::vector<int>* order, SimTime hold) {
  co_await sem.acquire();
  order->push_back(id);
  co_await e.sleep(hold);
  sem.release();
}

TEST(SemaphoreEdge, FifoFairnessUnderCancellation) {
  Engine e;
  Semaphore sem(e, 1);
  std::vector<int> order;
  // Holder takes the permit; 1..3 queue FIFO behind it.
  e.spawn(acquire_and_hold(e, sem, 0, &order, from_seconds(1.0)));
  auto victim_task = [](Semaphore& s, std::vector<int>* log) -> Task<void> {
    co_await s.acquire();
    log->push_back(99);  // must never run
    s.release();
  };
  e.run(from_seconds(0.1));  // holder owns the permit
  auto victim = start_detached(victim_task(sem, &order));
  e.spawn(acquire_and_hold(e, sem, 2, &order, 0));
  e.spawn(acquire_and_hold(e, sem, 3, &order, 0));
  e.run(from_seconds(0.5));
  ASSERT_EQ(sem.waiting(), 3u);
  victim.destroy();  // cancel the first queued waiter
  EXPECT_EQ(sem.waiting(), 2u);
  e.run();
  // The permit skips the destroyed head and preserves FIFO for the rest.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(SemaphoreEdge, PermitHandedToDestroyedWaiterIsReleased) {
  Engine e;
  Semaphore sem(e, 0);
  std::vector<int> order;
  auto victim = start_detached(
      [](Semaphore& s, std::vector<int>* log) -> Task<void> {
        co_await s.acquire();
        log->push_back(99);
        s.release();
      }(sem, &order));
  e.spawn(acquire_and_hold(e, sem, 2, &order, 0));
  e.run();
  ASSERT_EQ(sem.waiting(), 2u);
  sem.release();     // permit is handed to the victim (wakeup queued)...
  victim.destroy();  // ...which dies first; permit must pass to waiter 2
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(ChannelEdge, ItemRoutedToDestroyedConsumerIsRedelivered) {
  Engine e;
  Channel<std::string> ch(e);
  std::vector<std::string> got;
  auto consumer = [](Channel<std::string>& c,
                     std::vector<std::string>* out) -> Task<void> {
    out->push_back(co_await c.pop());
  };
  auto victim = start_detached(consumer(ch, &got));
  auto survivor = e.spawn(consumer(ch, &got));
  e.run();
  ch.push("payload");  // routed to the victim (FIFO)
  victim.destroy();    // dies before delivery; survivor must get the item
  e.run();
  EXPECT_TRUE(survivor.done());
  EXPECT_EQ(got, (std::vector<std::string>{"payload"}));
  EXPECT_TRUE(ch.empty());
}

Task<void> join_target(Engine& e) { co_await e.sleep(from_seconds(1.0)); }

TEST(JoinEdge, JoinerDestroyedBeforeTargetCompletes) {
  Engine e;
  JoinHandle target = e.spawn(join_target(e));
  bool joined = false;
  auto victim = start_detached(
      [](JoinHandle h, bool* flag) -> Task<void> {
        co_await h.join();
        *flag = true;
      }(target, &joined));
  victim.destroy();  // joiner dies while parked on the join list
  e.run();           // target completes; must not resume the dead joiner
  EXPECT_TRUE(target.done());
  EXPECT_FALSE(joined);
}

}  // namespace
}  // namespace vmstorm::sim
