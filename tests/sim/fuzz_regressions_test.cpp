// Regression replays distilled from the fuzz harness: each test pins one
// nasty interleaving (found by fuzzing or constructed from a shrunk decision
// log) as a plain tier-1 test, so the cases keep running even when the fuzz
// budget is zero. Programs are replayed through fuzz::run_program, which
// checks every runtime oracle on top of the per-test expectations.
#include <gtest/gtest.h>

#include <cstdint>

#include "fuzz/harness.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace vmstorm::fuzz {
namespace {

sim::Task<void> long_sleep(sim::Engine* engine) {
  co_await engine->sleep(sim::from_millis(10));
}

// The bug this PR fixed: Engine's sleep awaiter used to schedule its wakeup
// with no liveness guard, so destroying a coroutine suspended in sleep()
// left a dangling handle in the event queue and the next run() resumed a
// freed frame (ASan: heap-use-after-free in Engine::run). Any abstraction
// sleeping through the engine — FifoServer::serve, Disk platter ops — was
// reachable. The awaiter now owns a WaitRecord like every other blocking
// site; the queued wakeup is dropped and counted instead.
TEST(FuzzRegression, DestroyMidSleepIsSafe) {
  sim::Engine engine;
  sim::Task<void> task = long_sleep(&engine);
  auto h = task.release();
  h.resume();    // parks in sleep() with a wakeup queued at +10ms
  h.destroy();   // driver abandons the sleeper mid-wait
  engine.run();  // must drop the wakeup, not resume the freed frame
  EXPECT_EQ(engine.cancelled_wakeups(), 1u);
  EXPECT_EQ(engine.now(), sim::from_millis(10));  // time still advanced past it
}

TEST(FuzzRegression, CancelMidMultiSliceSleep) {
  const Program prog = {
      {OpKind::kSleeper, 2000, 3},  // 4 slices of 500us
      {OpKind::kAdvance, 700, 0},   // one slice done, second pending
      {OpKind::kCancel, 0, 0},
  };
  const Outcome out = run_program(prog);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.cancelled_wakeups, 1u);
  EXPECT_EQ(out.cancelled_wakeups, out.dropped_wakeups);
}

TEST(FuzzRegression, CancelChainMidDepth) {
  const Program prog = {
      {OpKind::kChain, 500, 4},    // 5 levels, 500us each
      {OpKind::kAdvance, 1200, 0}, // two levels deep
      {OpKind::kCancel, 0, 0},     // cascades through the nested frames
  };
  const Outcome out = run_program(prog);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  // Only the innermost level has a wakeup queued when the chain dies.
  EXPECT_EQ(out.cancelled_wakeups, 1u);
}

TEST(FuzzRegression, CancelPermitHolderLeaksExactlyOnePermit) {
  const Program prog = {
      {OpKind::kAcquirer, 1000, 0},  // takes permit 1
      {OpKind::kAcquirer, 1000, 0},  // takes permit 2
      {OpKind::kAcquirer, 100, 0},   // queues
      {OpKind::kAdvance, 200, 0},
      {OpKind::kCancel, 0, 0},       // destroy a holder mid-hold
      {OpKind::kAdvance, 4000, 0},
  };
  const Outcome out = run_program(prog);
  // The quiescence oracle inside run_program already checked that exactly
  // one permit is gone (leaked by the cancel) and that the queued third
  // acquirer was still granted in FIFO order by the surviving holder.
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.sem_queued, 1u);
  EXPECT_EQ(out.cancels_applied, 1u);
}

TEST(FuzzRegression, ItemGrantedToCancelledConsumerIsNotLost) {
  const Program prog = {
      {OpKind::kConsumer, 0, 0},  // parks on an empty channel
      {OpKind::kPush, 0, 0},      // item routed to it, wakeup in flight
      {OpKind::kCancel, 0, 0},    // consumer dies before the wakeup lands
      {OpKind::kAdvance, 100, 0},
  };
  const Outcome out = run_program(prog);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.pushed, 1u);
  EXPECT_EQ(out.popped, 0u);
  EXPECT_EQ(out.channel_left, 1u);  // conserved, not vanished with the frame
}

TEST(FuzzRegression, ItemIsRedeliveredToSurvivingConsumer) {
  const Program prog = {
      {OpKind::kConsumer, 0, 0},
      {OpKind::kConsumer, 0, 0},
      {OpKind::kPush, 0, 0},    // routed to consumer 0
      {OpKind::kCancel, 0, 0},  // which dies; wake_one must pass it on
      {OpKind::kAdvance, 100, 0},
  };
  const Outcome out = run_program(prog);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.popped, 1u);
  EXPECT_EQ(out.channel_left, 0u);
}

TEST(FuzzRegression, MidServiceCancelKeepsServerFifo) {
  const Program prog = {
      {OpKind::kServer, 8192, 0},
      {OpKind::kServer, 8192, 0},
      {OpKind::kServer, 8192, 0},
      {OpKind::kAdvance, 50, 0},  // request 0 in service, 1 and 2 queued
      {OpKind::kCancel, 1, 0},    // abandon the middle request mid-wait
      {OpKind::kAdvance, 4000, 0},
  };
  const Outcome out = run_program(prog);
  // run_program's FIFO oracle verified completions == [0, 2] in order.
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.cancelled_wakeups, 1u);
}

TEST(FuzzRegression, JoinerCancelledBeforeTargetCompletes) {
  const Program prog = {
      {OpKind::kJoinTarget, 2000, 0},
      {OpKind::kJoiner, 0, 0},
      {OpKind::kAdvance, 100, 0},
      {OpKind::kCancel, 1, 0},  // joiner dies; target must still complete
      {OpKind::kAdvance, 4000, 0},
  };
  const Outcome out = run_program(prog);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(FuzzRegression, WriterBlockedOnDirtyBudgetCancelledSafely) {
  // Three ~13 KiB write-backs against a 32 KiB dirty limit: the third
  // blocks in admission. Cancelling it while throttled must neither corrupt
  // dirty accounting nor strand the flushers (dirty_bytes drains to 0 —
  // checked by run_program's conservation oracle).
  const Program prog = {
      {OpKind::kDiskWrite, 30000, 1},
      {OpKind::kDiskWrite, 30000, 2},
      {OpKind::kDiskWrite, 30000, 3},
      // The first background flush lands at ~168us (seek + 13 KiB at the
      // fuzz disk's rate) and would admit the blocked writer; cancel before.
      {OpKind::kAdvance, 50, 0},
      {OpKind::kCancel, 2, 0},
      {OpKind::kAdvance, 100000, 0},
  };
  const Outcome out = run_program(prog);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.cancels_applied, 1u);
}

// Produced verbatim by the shrinker (seed 0x1, kChannelMix) when the
// alive_guard was deliberately removed from wake_waiter: the producer's
// wakeup for the parked consumer was scheduled unguarded, the cancel
// destroyed the consumer, and the auditor flagged dead-waiter-resumption.
// With the guard in place this minimal program must run clean — it pins
// the guard's presence on the sync-primitive wake path.
TEST(FuzzRegression, ShrunkSeed0x1ChannelMixGrantThenCancel) {
  const Program prog = {
      {OpKind::kConsumer, 0, 0},
      {OpKind::kProducer, 0, 0},
      {OpKind::kCancel, 0, 0},
  };
  const Outcome out = run_program(prog);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.cancelled_wakeups, 1u);  // the dropped (not resumed) grant
}

// Found by the queue_churn fuzz mode (seed 0x76d570a30001251f, ddmin from
// 118 ops to these 11) when the engine ran on a calendar queue: enqueue's
// cursor-rewind path re-anchored the year with a bare cursor reset, and the
// grown year captured overflow events that never migrated into the ring.
// Here the 17.6 s far sleeper stayed on the overflow list while the 18.8 s
// one sat in the ring, the drain popped 18.8 s first, and the auditor
// flagged non-monotone time. The heap that replaced the calendar queue has
// no rewind path; the program stays as a pin on the engine's dispatch
// order and must run clean.
TEST(FuzzRegression, ShrunkQueueChurnForwardRewindStrandsOverflow) {
  const Program prog = {
      {OpKind::kSleeper, 0, 0},        {OpKind::kFarSleeper, 10595, 0},
      {OpKind::kSleeper, 1969, 0},     {OpKind::kAdvance, 1553, 0},
      {OpKind::kFarSleeper, 7015, 0},  {OpKind::kAdvance, 650, 0},
      {OpKind::kFarSleeper, 18767, 0}, {OpKind::kChain, 0, 0},
      {OpKind::kFarSleeper, 17628, 0}, {OpKind::kAdvance, 0, 0},
      {OpKind::kFarSleeper, 3065, 0},
  };
  const Outcome out = run_program(prog);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

// A cancellation storm over every primitive at once — the densest shrunk
// shape the full mode produces. Replayed for determinism as well: two runs
// must give byte-identical event logs.
TEST(FuzzRegression, MixedCancellationStormIsDeterministic) {
  const Program prog = {
      {OpKind::kSleeper, 900, 2},   {OpKind::kAcquirer, 700, 0},
      {OpKind::kAcquirer, 700, 0},  {OpKind::kAcquirer, 700, 0},
      {OpKind::kServer, 4096, 0},   {OpKind::kConsumer, 1, 0},
      {OpKind::kWaiter, 0, 0},      {OpKind::kPush, 0, 0},
      {OpKind::kAdvance, 300, 0},   {OpKind::kCancel, 0, 0},
      {OpKind::kCancel, 2, 0},      {OpKind::kCancel, 6, 0},
      {OpKind::kSetEvent, 0, 0},    {OpKind::kAdvance, 2000, 0},
      {OpKind::kDiskRead, 5, 4096},
      {OpKind::kAdvance, 8000, 0},
  };
  const Outcome a = run_program(prog);
  EXPECT_TRUE(a.violations.empty()) << a.violations.front();
  const Outcome b = run_program(prog);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.summary(), b.summary());
}

}  // namespace
}  // namespace vmstorm::fuzz
