#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace vmstorm::sim {
namespace {

Task<void> sleeper(Engine& e, SimTime dt, std::vector<double>* log) {
  co_await e.sleep(dt);
  log->push_back(e.now_seconds());
}

TEST(Engine, TimeAdvancesWithSleep) {
  Engine e;
  std::vector<double> log;
  e.spawn(sleeper(e, from_seconds(1.5), &log));
  testing::internal::CaptureStderr();
  e.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");  // clean run
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 1.5);
  EXPECT_DOUBLE_EQ(e.now_seconds(), 1.5);
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<double> log;
  e.spawn(sleeper(e, from_seconds(3.0), &log));
  e.spawn(sleeper(e, from_seconds(1.0), &log));
  e.spawn(sleeper(e, from_seconds(2.0), &log));
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 2.0);
  EXPECT_DOUBLE_EQ(log[2], 3.0);
}

Task<void> tagger(Engine& e, int tag, std::vector<int>* order) {
  co_await e.sleep(from_seconds(1.0));
  order->push_back(tag);
}

TEST(Engine, EqualTimeEventsFifoBySpawnOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) e.spawn(tagger(e, i, &order));
  e.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

Task<void> nested_inner(Engine& e, std::vector<double>* log) {
  co_await e.sleep(from_seconds(0.5));
  log->push_back(e.now_seconds());
}

Task<void> nested_outer(Engine& e, std::vector<double>* log) {
  co_await e.sleep(from_seconds(1.0));
  co_await nested_inner(e, log);
  co_await nested_inner(e, log);
  log->push_back(e.now_seconds());
}

TEST(Engine, NestedTasksCompose) {
  Engine e;
  std::vector<double> log;
  e.spawn(nested_outer(e, &log));
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[0], 1.5);
  EXPECT_DOUBLE_EQ(log[1], 2.0);
  EXPECT_DOUBLE_EQ(log[2], 2.0);
}

Task<int> answer(Engine& e) {
  co_await e.sleep(from_seconds(0.1));
  co_return 42;
}

Task<void> consumer(Engine& e, int* out) {
  *out = co_await answer(e);
}

TEST(Engine, TaskReturnsValue) {
  Engine e;
  int out = 0;
  e.spawn(consumer(e, &out));
  e.run();
  EXPECT_EQ(out, 42);
}

Task<void> thrower(Engine& e) {
  co_await e.sleep(from_seconds(0.1));
  throw std::runtime_error("boom");
}

Task<void> catcher(Engine& e, bool* caught) {
  try {
    co_await thrower(e);
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Engine, ExceptionsPropagateToAwaiter) {
  Engine e;
  bool caught = false;
  e.spawn(catcher(e, &caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, SpawnedExceptionCapturedInJoinHandle) {
  Engine e;
  JoinHandle h = e.spawn(thrower(e));
  e.run();
  EXPECT_TRUE(h.done());
  EXPECT_THROW(h.rethrow(), std::runtime_error);
}

Task<void> join_waiter(Engine& e, JoinHandle h, std::vector<double>* log) {
  co_await h.join();
  log->push_back(e.now_seconds());
}

TEST(Engine, JoinWaitsForCompletion) {
  Engine e;
  std::vector<double> log;
  JoinHandle h = e.spawn(sleeper(e, from_seconds(2.0), &log));
  e.spawn(join_waiter(e, h, &log));
  e.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[1], 2.0);
}

TEST(Engine, JoinAfterCompletionIsImmediate) {
  Engine e;
  std::vector<double> log;
  JoinHandle h = e.spawn(sleeper(e, from_seconds(1.0), &log));
  e.run();
  ASSERT_TRUE(h.done());
  e.spawn(join_waiter(e, h, &log));
  e.run();
  ASSERT_EQ(log.size(), 2u);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine e;
  std::vector<double> log;
  e.spawn(sleeper(e, from_seconds(10.0), &log));
  testing::internal::CaptureStderr();
  e.run(from_seconds(5.0));
  // Stopping early with a live sleeper is not a drained queue: no warning.
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_TRUE(log.empty());
  EXPECT_DOUBLE_EQ(e.now_seconds(), 5.0);
  EXPECT_EQ(e.live_tasks(), 1u);
  // A stop time behind the clock must not move it backwards.
  testing::internal::CaptureStderr();
  e.run(from_seconds(3.0));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_DOUBLE_EQ(e.now_seconds(), 5.0);
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 10.0);
}

Task<void> sleep_then_wait(Engine& e, SimTime dt, Event* gate) {
  co_await e.sleep(dt);
  co_await gate->wait();
}

// The drained-queue warning is the engine's only output. It names the
// simulated time the queue ran dry and how many tasks are still blocked.
TEST(Engine, DrainedWithLiveTaskWarnsOnStderr) {
  Engine e;
  Event gate(e);
  e.spawn(sleep_then_wait(e, from_seconds(2.5), &gate));
  testing::internal::CaptureStderr();
  e.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[  2.500000] [WARN ] [sim] event queue drained with 1 live "
            "task(s) still blocked\n");
  EXPECT_EQ(e.live_tasks(), 1u);
  // Release the task so it finishes (and frees its join state).
  gate.set();
  e.run();
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<double> log;
    for (int i = 0; i < 20; ++i) {
      e.spawn(sleeper(e, from_seconds(0.1 * (i % 7)), &log));
    }
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, TelemetryCountersTrackQueueAndWaitRecords) {
  Engine e;
  EXPECT_EQ(e.events_scheduled(), 0u);
  EXPECT_EQ(e.wait_records_created(), 0u);
  EXPECT_EQ(e.wait_records_live(), 0u);
  std::vector<double> log;
  for (int i = 0; i < 4; ++i) {
    e.spawn(sleeper(e, from_seconds(static_cast<double>(i + 1)), &log));
  }
  // 4 start events are queued before the loop runs.
  EXPECT_EQ(e.queue_depth(), 4u);
  e.run();
  EXPECT_EQ(log.size(), 4u);
  // 4 spawn-start events plus 4 sleep wakeups, all processed.
  EXPECT_EQ(e.events_scheduled(), 8u);
  EXPECT_EQ(e.events_processed(), 8u);
  EXPECT_EQ(e.queue_depth(), 0u);
  EXPECT_EQ(e.queue_depth_high_water(), 4u);
  // One WaitRecord per sleep; all four were live at once (the sleeps
  // overlap), and none survive the drained run.
  EXPECT_EQ(e.wait_records_created(), 4u);
  EXPECT_EQ(e.wait_records_live_high_water(), 4u);
  EXPECT_EQ(e.wait_records_live(), 0u);
  EXPECT_EQ(e.cancelled_wakeups(), 0u);
}

}  // namespace
}  // namespace vmstorm::sim
