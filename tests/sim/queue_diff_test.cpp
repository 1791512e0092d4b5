// Differential harness: EventQueue vs a reference std::priority_queue.
//
// Dispatch order must be EXACTLY ascending (time, seq) — every trace,
// metric, and bench artifact in this repo is byte-identical per seed, so
// "almost sorted" is a correctness bug. This harness drives both queues side
// by side over Rng-generated schedule/pop/cancel programs shaped like the
// engine's workloads (dense same-tick bursts, short near-future wakeups,
// far-future outliers, interleaved waiter cancellation, a deep hold at the
// paper workloads' queue depth) and asserts identical pop sequences,
// including which pops the engine would drop on a dead guard.
//
// The generator follows the engine: it never schedules earlier than the
// last popped event's time, because Engine::schedule_at asserts t >= now_.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/wait_pool.hpp"

namespace vmstorm::sim {
namespace {

struct RefEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  bool guarded = false;
  std::uint32_t slot = 0;  // pool slot of the guard's record, when guarded
  bool operator>(const RefEvent& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

/// Drives an EventQueue and a reference heap through the same schedule /
/// pop / cancel interleaving and asserts identical pop order and guard
/// verdicts. Returns the total number of pops compared.
class DiffDriver {
 public:
  explicit DiffDriver(std::uint64_t seed) : rng_(seed) {}

  void schedule(SimTime dt, bool guarded) {
    const SimTime t = now_ + dt;
    QueuedEvent ev;
    ev.time = t;
    ev.seq = next_seq_;
    RefEvent ref{t, next_seq_, guarded, 0};
    if (guarded) {
      WaitRef rec = pool_.make({}, 0, 0.0);
      ref.slot = rec.slot();
      ev.guard = alive_guard(rec);
      pending_.push_back(rec);
    }
    ++next_seq_;
    queue_.enqueue(std::move(ev));
    heap_.push(ref);
    ASSERT_EQ(queue_.size(), heap_.size());
  }

  /// Marks a random still-pending waiter dead, like an awaiter destructor
  /// would (mid-sleep frame destruction). The guard in the queue keeps the
  /// slot pinned, so this flips `alive` rather than recycling.
  void cancel_random() {
    if (pending_.empty()) return;
    const std::size_t i =
        static_cast<std::size_t>(rng_.uniform_u64(pending_.size()));
    pending_[i]->alive = false;
    pending_[i] = pending_.back();
    pending_.pop_back();
  }

  void pop_one() {
    ASSERT_FALSE(queue_.empty());
    const QueuedEvent* head = queue_.peek();
    ASSERT_NE(head, nullptr);
    const RefEvent want = heap_.top();
    // peek must already agree with the reference minimum.
    ASSERT_EQ(head->time, want.time) << "peek time diverged at pop " << pops_;
    ASSERT_EQ(head->seq, want.seq) << "peek seq diverged at pop " << pops_;
    heap_.pop();
    QueuedEvent got = queue_.dequeue();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_GE(got.time, now_) << "queue popped into the past";
    // The engine's drop decision must match: guarded events agree with the
    // record's alive flag (generation-checked through the pool).
    ASSERT_EQ(got.guard.unconditional(), !want.guarded);
    if (want.guarded) {
      ASSERT_EQ(got.guard.valid(), pool_.record(want.slot).alive)
          << "guard verdict diverged at pop " << pops_;
    }
    now_ = got.time;
    if (want.guarded) retire(want.slot);
    ++pops_;
    ASSERT_EQ(queue_.size(), heap_.size());
  }

  void drain() {
    while (!queue_.empty()) {
      pop_one();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(heap_.empty());
  }

  Rng& rng() { return rng_; }
  std::size_t size() const { return queue_.size(); }
  std::uint64_t pops() const { return pops_; }
  SimTime now() const { return now_; }

 private:
  /// Popped waiters leave the cancellable set — their guard left the queue,
  /// so flipping them later could no longer affect any verdict.
  void retire(std::uint32_t slot) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].slot() != slot) continue;
      pending_[i] = pending_.back();
      pending_.pop_back();
      return;
    }
  }

  Rng rng_;
  WaitPool pool_;
  EventQueue queue_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>> heap_;
  std::vector<WaitRef> pending_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pops_ = 0;
};

// Weighted dt generator: mostly dense near-future, a same-tick burst share,
// and rare far-future outliers (hours).
SimTime random_dt(Rng& rng) {
  const std::uint64_t pick = rng.uniform_u64(100);
  if (pick < 30) return 0;  // same tick
  if (pick < 85) return static_cast<SimTime>(rng.uniform_u64(2'000'000));
  if (pick < 97) {
    return static_cast<SimTime>(rng.uniform_u64(2'000'000'000));  // ~2 s
  }
  // Far-future outlier, up to ~4.6 hours.
  return static_cast<SimTime>(rng.uniform_u64(std::uint64_t{1} << 44));
}

TEST(QueueDiff, RandomProgramsMatchReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    DiffDriver d(seed * 0x9e3779b97f4a7c15ull);
    Rng& rng = d.rng();
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.uniform_u64(100);
      if (op < 55 || d.size() == 0) {
        d.schedule(random_dt(rng), rng.uniform_u64(2) == 0);
      } else if (op < 85) {
        d.pop_one();
      } else if (op < 95) {
        d.cancel_random();
      } else {
        // Drain burst: pop a chunk in a row, like a quiescing engine.
        const std::uint64_t k = rng.uniform_u64(32) + 1;
        for (std::uint64_t i = 0; i < k && d.size() > 0; ++i) d.pop_one();
      }
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    d.drain();
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;
    EXPECT_GT(d.pops(), 0u);
  }
}

TEST(QueueDiff, SameTickBurstsKeepFifoOrder) {
  DiffDriver d(7);
  // Dense same-tick fan-out: every event at the same timestamp must pop in
  // schedule (seq) order — the engine's FIFO tiebreak.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) d.schedule(0, false);
    for (int i = 0; i < 150; ++i) d.pop_one();
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "round " << round;
    d.schedule(1000, false);  // nudge time forward between bursts
  }
  d.drain();
}

TEST(QueueDiff, FarFutureOutliersStayOrdered) {
  DiffDriver d(11);
  Rng& rng = d.rng();
  // A dense near-future cluster with a far-future outlier every 20th event:
  // the drain pops the whole cluster before the first outlier.
  for (int i = 0; i < 3000; ++i) {
    const SimTime dt =
        i % 20 == 0
            ? static_cast<SimTime>(rng.uniform_u64(std::uint64_t{1} << 40))
            : static_cast<SimTime>(rng.uniform_u64(2'000'000));
    d.schedule(dt, i % 3 == 0);
    if (i % 7 == 0) d.cancel_random();
  }
  d.drain();
}

TEST(QueueDiff, InterleavedCancellationMatchesDropVerdicts) {
  DiffDriver d(13);
  Rng& rng = d.rng();
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) d.schedule(random_dt(rng), true);
    for (int i = 0; i < 8; ++i) d.cancel_random();
    for (int i = 0; i < 15 && d.size() > 0; ++i) d.pop_one();
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "round " << round;
  }
  d.drain();
}

// The delay mix of paper_baselines' enqueues (ROADMAP item 3): 21 % zero,
// 22 % 10-100 us, 42 % 100 us-1 ms, 13 % 1-10 ms, 3 % 10 ms-1 s. The
// rounded shares sum to 101.
SimTime paper_dt(Rng& rng) {
  const auto ns = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<SimTime>(rng.uniform_range(lo, hi));
  };
  const std::uint64_t pick = rng.uniform_u64(101);
  if (pick < 21) return 0;
  if (pick < 43) return ns(10'000, 100'000);
  if (pick < 85) return ns(100'000, 1'000'000);
  if (pick < 98) return ns(1'000'000, 10'000'000);
  return ns(10'000'000, 1'000'000'000);
}

// A hold at the paper workloads' depth: fill to 16,384 pending, past
// paper_baselines' queue high-water of 15,969, which doubles the slab 8
// times and builds an 8-level heap; then pop one and push one, so every
// sift spans the depth.
TEST(QueueDiff, DeepHoldMatchesReferenceHeap) {
  constexpr std::size_t kDepth = 16384;
  DiffDriver d(17);
  Rng& rng = d.rng();
  while (d.size() < kDepth) {
    d.schedule(paper_dt(rng), rng.uniform_u64(16) == 0);
  }
  for (std::size_t step = 0; step < 4 * kDepth; ++step) {
    d.pop_one();
    d.schedule(paper_dt(rng), rng.uniform_u64(16) == 0);
    if (step % 64 == 0) d.cancel_random();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged at hold step " << step;
    }
  }
  EXPECT_EQ(d.size(), kDepth);
  d.drain();
}

}  // namespace
}  // namespace vmstorm::sim
