// WaitPool lifecycle tests: slot recycling, generation-stamp rejection of
// stale guards, and agreement between the pool's high-water accounting and
// the engine's sim.wait_records_live_high_water gauge; plus WaitQueue's
// bounded storage.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/wait_pool.hpp"

namespace vmstorm::sim {
namespace {

TEST(WaitPool, RecyclesSlotAfterLastReferenceDrops) {
  WaitPool pool;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  {
    WaitRef rec = pool.make({}, 42, 1.5);
    slot = rec.slot();
    gen = rec.generation();
    EXPECT_EQ(rec->span, 42u);
    EXPECT_DOUBLE_EQ(rec->wait_since, 1.5);
    EXPECT_EQ(pool.live(), 1u);
  }
  EXPECT_EQ(pool.live(), 0u);
  // The freed slot is recycled LIFO with a bumped generation and fully
  // reset fields.
  WaitRef again = pool.make({}, 0, 0.0);
  EXPECT_EQ(again.slot(), slot);
  EXPECT_EQ(again.generation(), gen + 1);
  EXPECT_TRUE(again->alive);
  EXPECT_FALSE(again->resumed);
  EXPECT_FALSE(again->granted);
  EXPECT_EQ(again->span, 0u);
  EXPECT_EQ(pool.created(), 2u);
}

TEST(WaitPool, RecycleAfterCancelReusesTheSlot) {
  WaitPool pool;
  WaitRef rec = pool.make({}, 0, 0.0);
  const std::uint32_t slot = rec.slot();
  rec->alive = false;  // awaiter destructor: waiter cancelled mid-wait
  rec.reset();         // last reference drops -> recycle
  EXPECT_EQ(pool.live(), 0u);
  WaitRef next = pool.make({}, 0, 0.0);
  EXPECT_EQ(next.slot(), slot);
  EXPECT_TRUE(next->alive) << "recycled slot must not inherit cancellation";
}

TEST(WaitPool, StaleGenerationStampNeverReadsAlive) {
  WaitPool pool;
  WaitRef rec = pool.make({}, 0, 0.0);
  const std::uint32_t slot = rec.slot();
  const std::uint32_t gen = rec.generation();
  EXPECT_TRUE(pool.guard_alive(slot, gen));
  rec.reset();  // recycle: generation bumps
  WaitRef reuse = pool.make({}, 0, 0.0);
  ASSERT_EQ(reuse.slot(), slot);
  ASSERT_TRUE(reuse->alive);
  // The old stamp must read dead even though the slot's new occupant is
  // alive — a recycled slot can never resurrect a stale guard.
  EXPECT_FALSE(pool.guard_alive(slot, gen));
  EXPECT_TRUE(pool.guard_alive(slot, reuse.generation()));
}

TEST(WaitGuard, OwnsItsRecordAndTracksLiveness) {
  WaitPool pool;
  WaitGuard guard;
  EXPECT_TRUE(guard.unconditional());
  {
    WaitRef rec = pool.make({}, 0, 0.0);
    guard = alive_guard(rec);
    EXPECT_FALSE(guard.unconditional());
    EXPECT_TRUE(guard.valid());
    rec->alive = false;
    EXPECT_FALSE(guard.valid());
  }
  // The guard's own reference keeps the slot pinned (live) after the
  // awaiter's ref dropped — exactly the in-flight-wakeup window.
  EXPECT_EQ(pool.live(), 1u);
  guard = WaitGuard{};
  EXPECT_EQ(pool.live(), 0u);
}

TEST(WaitPool, SlabGrowthPreservesLiveRecords) {
  WaitPool pool;
  std::vector<WaitRef> refs;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    refs.push_back(pool.make({}, i, static_cast<double>(i)));
  }
  EXPECT_GE(pool.capacity(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(refs[i]->span, i);
  }
  EXPECT_EQ(pool.live(), 1000u);
  EXPECT_EQ(pool.live_high_water(), 1000u);
  refs.clear();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.live_high_water(), 1000u);
}

Task<void> sleeper(Engine& e, SimTime dt) { co_await e.sleep(dt); }

Task<void> wait_on(Event& ev) { co_await ev.wait(); }

// The sim.wait_records_live_high_water gauge exported by the engine (and by
// Cloud::collect_metrics) must be the pool's own high-water accounting —
// overlapping sleeps and primitive waiters both count, and everything drains
// back to zero.
TEST(WaitPool, HighWaterAgreesWithEngineGauge) {
  Engine e;
  Event ev(e);
  for (int i = 0; i < 5; ++i) e.spawn(sleeper(e, from_micros(10)));
  for (int i = 0; i < 3; ++i) e.spawn(wait_on(ev));
  e.spawn([](Engine& eng, Event& done) -> Task<void> {
    co_await eng.sleep(from_micros(5));
    done.set();
  }(e, ev));
  e.run();
  EXPECT_EQ(e.live_tasks(), 0u);
  // 5 sleep records + 3 event waiters + 1 setter sleep all overlapped
  // within the first 10us.
  EXPECT_EQ(e.wait_records_live_high_water(), 9u);
  EXPECT_EQ(e.wait_records_live_high_water(),
            e.wait_pool().live_high_water());
  EXPECT_EQ(e.wait_records_created(), e.wait_pool().created());
  EXPECT_EQ(e.wait_pool().live(), 0u);
  EXPECT_EQ(e.wait_records_live(), 0u);
}

// A wakeup in flight when its sleeper is destroyed: the queue's guard is the
// last owner, the drop path reads it dead, and the slot recycles only after
// the drop — never resurrecting the record for the next waiter.
TEST(WaitPool, MidSleepDestructionRecyclesOnlyAfterTheDrop) {
  Engine e;
  Task<void> t = sleeper(e, from_micros(100));
  auto h = t.release();
  const std::uint64_t seq0 = e.events_scheduled();
  e.schedule_after(0, h);  // start the sleeper
  (void)seq0;
  e.run(from_micros(1));  // sleeper is now parked with a queued wakeup
  EXPECT_EQ(e.wait_records_live(), 1u);
  h.destroy();  // awaiter dtor flips alive; guard still pins the slot
  EXPECT_EQ(e.wait_records_live(), 1u);
  e.run();  // dispatches the wakeup -> guarded drop -> slot recycles
  EXPECT_EQ(e.cancelled_wakeups(), 1u);
  EXPECT_EQ(e.wait_records_live(), 0u);
}

Task<void> park(WaitQueue& q) { co_await q.wait(/*ready=*/false); }

// A queue that never fully drains (disk admission under sustained write
// pressure) compacts its woken prefix: its storage stays bounded by the
// waiters still parked, not by every waiter that ever passed through.
TEST(WaitQueue, NeverDrainedQueueStaysBoundedByLiveWaiters) {
  constexpr std::size_t kLive = 8;
  Engine e;
  WaitQueue q(e, "test.queue");
  for (std::size_t i = 0; i < kLive; ++i) e.spawn(park(q));
  e.run();
  for (int round = 0; round < 5000; ++round) {
    e.spawn(park(q));
    e.run();  // the newcomer parks behind the others
    ASSERT_TRUE(q.wake_one());
    e.run();  // the oldest resumes and finishes
    ASSERT_EQ(q.waiting(), kLive);
  }
  EXPECT_LE(q.capacity(), 4 * kLive);
  EXPECT_EQ(e.wait_records_live(), kLive);
  q.wake_all();
  e.run();
  EXPECT_EQ(e.live_tasks(), 0u);
  EXPECT_EQ(e.wait_records_live(), 0u);
}

}  // namespace
}  // namespace vmstorm::sim
