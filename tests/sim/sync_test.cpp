#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace vmstorm::sim {
namespace {

Task<void> event_waiter(Engine& e, Event& ev, std::vector<double>* log) {
  co_await ev.wait();
  log->push_back(e.now_seconds());
}

Task<void> event_setter(Engine& e, Event& ev, SimTime at) {
  co_await e.sleep(at);
  ev.set();
}

TEST(Event, WakesAllWaiters) {
  Engine e;
  Event ev(e);
  std::vector<double> log;
  for (int i = 0; i < 3; ++i) e.spawn(event_waiter(e, ev, &log));
  e.spawn(event_setter(e, ev, from_seconds(2.0)));
  e.run();
  ASSERT_EQ(log.size(), 3u);
  for (double t : log) EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(Event, WaitAfterSetIsImmediate) {
  Engine e;
  Event ev(e);
  ev.set();
  std::vector<double> log;
  e.spawn(event_waiter(e, ev, &log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 0.0);
}

TEST(Event, DoubleSetIsIdempotent) {
  Engine e;
  Event ev(e);
  ev.set();
  ev.set();
  EXPECT_TRUE(ev.is_set());
}

Task<void> sem_user(Engine& e, Semaphore& sem, SimTime hold,
                    std::vector<std::pair<double, double>>* spans) {
  co_await sem.acquire();
  double start = e.now_seconds();
  co_await e.sleep(hold);
  spans->push_back({start, e.now_seconds()});
  sem.release();
}

TEST(Semaphore, LimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  std::vector<std::pair<double, double>> spans;
  for (int i = 0; i < 6; ++i) {
    e.spawn(sem_user(e, sem, from_seconds(1.0), &spans));
  }
  e.run();
  ASSERT_EQ(spans.size(), 6u);
  // With 2 permits and 1 s holds, completion waves at t=1,2,3.
  EXPECT_DOUBLE_EQ(e.now_seconds(), 3.0);
  // At most 2 overlapping spans at any time.
  for (double t : {0.5, 1.5, 2.5}) {
    int active = 0;
    for (auto& [s, f] : spans) active += (s <= t && t < f);
    EXPECT_LE(active, 2);
  }
}

TEST(Semaphore, FifoOrder) {
  Engine e;
  Semaphore sem(e, 1);
  std::vector<std::pair<double, double>> spans;
  for (int i = 0; i < 4; ++i) e.spawn(sem_user(e, sem, from_seconds(1.0), &spans));
  e.run();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(spans[i].first, static_cast<double>(i));
  }
}

Task<void> producer(Engine& e, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await e.sleep(from_seconds(0.1));
    ch.push(i);
  }
}

Task<void> chan_consumer(Engine& e, Channel<int>& ch, int n, std::vector<int>* got) {
  (void)e;
  for (int i = 0; i < n; ++i) {
    got->push_back(co_await ch.pop());
  }
}

TEST(Channel, FifoDelivery) {
  Engine e;
  Channel<int> ch(e);
  std::vector<int> got;
  e.spawn(chan_consumer(e, ch, 5, &got));
  e.spawn(producer(e, ch, 5));
  e.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, MultipleConsumersDrainAll) {
  Engine e;
  Channel<int> ch(e);
  std::vector<int> got_a, got_b;
  e.spawn(chan_consumer(e, ch, 3, &got_a));
  e.spawn(chan_consumer(e, ch, 3, &got_b));
  e.spawn(producer(e, ch, 6));
  e.run();
  EXPECT_EQ(got_a.size() + got_b.size(), 6u);
  EXPECT_EQ(e.live_tasks(), 0u);
}

Task<void> delay_task(Engine& e, SimTime dt) { co_await e.sleep(dt); }

Task<void> run_when_all(Engine& e, double* finished_at) {
  std::vector<Task<void>> tasks;
  for (int i = 1; i <= 4; ++i) tasks.push_back(delay_task(e, from_seconds(i)));
  co_await when_all(e, std::move(tasks));
  *finished_at = e.now_seconds();
}

TEST(WhenAll, WaitsForSlowest) {
  Engine e;
  double finished_at = 0;
  e.spawn(run_when_all(e, &finished_at));
  e.run();
  EXPECT_DOUBLE_EQ(finished_at, 4.0);
}

TEST(WhenAll, EmptyVectorCompletesImmediately) {
  Engine e;
  double finished_at = -1;
  e.spawn([](Engine& eng, double* out) -> Task<void> {
    co_await when_all(eng, {});
    *out = eng.now_seconds();
  }(e, &finished_at));
  e.run();
  EXPECT_DOUBLE_EQ(finished_at, 0.0);
}

}  // namespace
}  // namespace vmstorm::sim
