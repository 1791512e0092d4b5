// Budgeted fuzz sweep plus focused property tests over the fuzz harness.
//
// The sweep is wall-clock bounded: VMSTORM_FUZZ_MS (default 5000, 0 skips
// the random sweep; the fixed seeds always run). VMSTORM_FUZZ_SEED rebases
// the random sweep (CI nightlies pass the run id for fresh coverage) and
// VMSTORM_FUZZ_DIR, when set, receives the decision-log artifact for any
// failing seed.
#include "fuzz/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/env.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vmstorm::fuzz {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = common::env_or(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

/// Writes a failing seed's report where CI can pick it up as an artifact.
void save_artifact(std::uint64_t seed, const std::string& report) {
  const char* dir = common::env_or("VMSTORM_FUZZ_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::ofstream out(std::string(dir) + "/fuzz_failure_" +
                    std::to_string(seed) + ".log");
  out << report;
}

constexpr Mode kModes[] = {Mode::kFull, Mode::kSleepCancel, Mode::kChannelMix,
                           Mode::kQueueChurn};

// ---- Always-on fixed seeds (run even with VMSTORM_FUZZ_MS=0) --------------

TEST(Fuzz, FixedSeedsAllModes) {
  const std::uint64_t seeds[] = {1, 2, 3, 42, 0x5eed, 0xdecaf, 0xfeedbeef};
  for (std::uint64_t seed : seeds) {
    for (Mode mode : kModes) {
      const std::string report = check_seed(seed, mode);
      if (!report.empty()) save_artifact(seed, report);
      EXPECT_EQ(report, "") << "seed " << seed << " failed";
    }
  }
}

// ---- Budgeted random sweep -------------------------------------------------

TEST(Fuzz, RandomSweepBudgeted) {
  const std::uint64_t budget_ms = env_u64("VMSTORM_FUZZ_MS", 5000);
  if (budget_ms == 0) GTEST_SKIP() << "VMSTORM_FUZZ_MS=0";
  const std::uint64_t base = env_u64("VMSTORM_FUZZ_SEED", 0x76d5'70a3'0000'0000);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t n = 0;
  while (std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < static_cast<std::int64_t>(budget_ms)) {
    const std::uint64_t seed = base + n;
    const Mode mode = kModes[n % std::size(kModes)];
    const std::string report = check_seed(seed, mode);
    if (!report.empty()) {
      save_artifact(seed, report);
      FAIL() << report;
    }
    ++n;
  }
  RecordProperty("seeds_checked", static_cast<int>(n));
}

// ---- Determinism: same seed, byte-identical event order --------------------

TEST(Fuzz, SameSeedDoubleRunIsByteIdentical) {
  for (Mode mode : kModes) {
    const Program prog = generate(0xd0b1e, mode);
    const Outcome a = run_program(prog);
    const Outcome b = run_program(prog);
    EXPECT_FALSE(a.event_log.empty());
    EXPECT_EQ(a.event_log, b.event_log);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.cancelled_wakeups, b.cancelled_wakeups);
    EXPECT_EQ(a.end_seconds, b.end_seconds);
    EXPECT_EQ(a.summary(), b.summary());
  }
}

TEST(Fuzz, GeneratorIsDeterministicAndSeedSensitive) {
  const Program a = generate(7, Mode::kFull);
  const Program b = generate(7, Mode::kFull);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
  }
  const Program c = generate(8, Mode::kFull);
  EXPECT_NE(format_program(7, Mode::kFull, a),
            format_program(8, Mode::kFull, c));
}

// ---- Satellite: exact cancelled_wakeups() accounting -----------------------

// In kSleepCancel mode the only guarded wakeups are engine sleeps, and the
// harness counts every cancel of a live sleeper/chain (each is necessarily
// suspended on exactly one queued sleep). So the engine's counter, the
// auditor's dropped count, and the generator's bookkeeping must agree
// exactly — not merely be consistent.
TEST(Fuzz, CancelledWakeupAccountingIsExact) {
  std::uint64_t total_cancelled = 0;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const Program prog = generate(seed, Mode::kSleepCancel);
    const Outcome out = run_program(prog);
    EXPECT_TRUE(out.violations.empty())
        << "seed " << seed << ": " << out.violations.front();
    EXPECT_EQ(out.cancelled_wakeups, out.expected_abandoned_sleeps)
        << "seed " << seed;
    EXPECT_EQ(out.cancelled_wakeups, out.dropped_wakeups) << "seed " << seed;
    total_cancelled += out.cancelled_wakeups;
  }
  // The mode exists to exercise abandonment; a sweep that never cancels
  // anything would be testing nothing.
  EXPECT_GT(total_cancelled, 0u);
}

// ---- Satellite: queue-churn mode drives the engine's event queue ------------

// kQueueChurn spawns only sleep-shaped tasks (sleepers, chains, far
// sleepers), so the kSleepCancel exactness contract carries over: engine
// counter, auditor count, and harness bookkeeping must agree cancel for
// cancel. The far sleepers additionally park wakeups seconds out, long
// after the dense near-future ones, so the final drain pops a wide spread
// of times with cancelled frames' guards still in flight.
TEST(Fuzz, QueueChurnAccountingIsExact) {
  std::uint64_t total_cancelled = 0;
  double latest_end = 0;
  for (std::uint64_t seed = 900; seed < 940; ++seed) {
    const Program prog = generate(seed, Mode::kQueueChurn);
    const Outcome out = run_program(prog);
    EXPECT_TRUE(out.violations.empty())
        << "seed " << seed << ": " << out.violations.front();
    EXPECT_EQ(out.cancelled_wakeups, out.expected_abandoned_sleeps)
        << "seed " << seed;
    EXPECT_EQ(out.cancelled_wakeups, out.dropped_wakeups) << "seed " << seed;
    total_cancelled += out.cancelled_wakeups;
    latest_end = std::max(latest_end, out.end_seconds);
  }
  EXPECT_GT(total_cancelled, 0u);
  // Far sleepers must actually survive to the drain: quiescence lands
  // seconds out, far beyond the millisecond-scale sleepers.
  EXPECT_GT(latest_end, 1.0);
}

// ---- Satellite: channel conservation under close/abandon mixes -------------

TEST(Fuzz, ChannelConservationUnderAbandonment) {
  std::uint64_t total_popped = 0;
  std::uint64_t total_cancels = 0;
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    const Program prog = generate(seed, Mode::kChannelMix);
    const Outcome out = run_program(prog);
    EXPECT_TRUE(out.violations.empty())
        << "seed " << seed << ": " << out.violations.front();
    EXPECT_EQ(out.pushed, out.popped + out.channel_left) << "seed " << seed;
    total_popped += out.popped;
    total_cancels += out.cancels_applied;
  }
  EXPECT_GT(total_popped, 0u);
  EXPECT_GT(total_cancels, 0u);
}

// ---- InvariantAuditor unit tests -------------------------------------------

TEST(InvariantAuditor, DetectsDeadWaiterResumption) {
  sim::InvariantAuditor auditor;
  sim::WaitPool pool;
  sim::WaitRef rec = pool.make({}, 0, 0.0);
  auditor.on_wakeup_scheduled(17, rec);
  rec->alive = false;  // waiter destroyed while the wakeup is in flight
  EXPECT_THROW(auditor.on_event(17, sim::from_micros(5), /*dropped=*/false),
               sim::InvariantViolation);
  EXPECT_EQ(auditor.violations().size(), 1u);
}

TEST(InvariantAuditor, DetectsLiveWaiterDrop) {
  sim::InvariantAuditor auditor;
  sim::WaitPool pool;
  sim::WaitRef rec = pool.make({}, 0, 0.0);
  auditor.on_wakeup_scheduled(3, rec);
  EXPECT_THROW(auditor.on_event(3, 0, /*dropped=*/true),
               sim::InvariantViolation);
}

TEST(InvariantAuditor, DetectsNonMonotoneTime) {
  sim::InvariantAuditor auditor;
  auditor.on_event(1, sim::from_micros(10), /*dropped=*/false);
  EXPECT_THROW(auditor.on_event(2, sim::from_micros(9), /*dropped=*/false),
               sim::InvariantViolation);
}

TEST(InvariantAuditor, TracksPendingAndDroppedCounts) {
  sim::InvariantAuditor auditor;
  auditor.fail_fast = false;
  sim::WaitPool pool;
  sim::WaitRef rec = pool.make({}, 0, 0.0);
  sim::WaitRef rec2 = pool.make({}, 0, 0.0);
  auditor.on_wakeup_scheduled(1, rec);
  auditor.on_wakeup_scheduled(2, rec2);
  EXPECT_EQ(auditor.pending_wakeups(), 2u);
  auditor.on_event(1, 0, /*dropped=*/false);
  EXPECT_EQ(auditor.pending_wakeups(), 1u);
  rec2->alive = false;
  auditor.on_event(2, 0, /*dropped=*/true);
  EXPECT_EQ(auditor.pending_wakeups(), 0u);
  EXPECT_EQ(auditor.dropped_wakeups(), 1u);
  EXPECT_EQ(auditor.events_seen(), 2u);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(InvariantAuditor, FailFastOffCollectsInsteadOfThrowing) {
  sim::InvariantAuditor auditor;
  auditor.fail_fast = false;
  sim::WaitPool pool;
  sim::WaitRef rec = pool.make({}, 0, 0.0);
  auditor.on_wakeup_scheduled(9, rec);
  rec->alive = false;
  auditor.on_event(9, 0, /*dropped=*/false);  // no throw
  ASSERT_EQ(auditor.violations().size(), 1u);
}

sim::Task<void> park_on(sim::Event* ev) { co_await ev->wait(); }

// End-to-end through Engine::run, without UB: an unguarded wakeup for a
// waiter whose record reads dead must make the auditor throw BEFORE the
// engine resumes the handle.
TEST(InvariantAuditor, EngineFailsFastBeforeResumingDeadWaiter) {
  sim::Engine engine;
  sim::InvariantAuditor auditor;
  engine.set_auditor(&auditor);
  sim::Event never{engine};
  sim::Task<void> task = park_on(&never);
  auto h = task.release();
  h.resume();  // parks on the event's waiter list
  sim::WaitRef rec = engine.wait_pool().make(h, 0, 0.0);
  // Deliberately no alive guard: this models a buggy wake path.
  const std::uint64_t seq = engine.schedule_after(0, h);
  auditor.on_wakeup_scheduled(seq, rec);
  rec->alive = false;  // the waiter "died" while the wakeup was in flight
  EXPECT_THROW(engine.run(), sim::InvariantViolation);
  h.destroy();  // never resumed — safe to destroy
}

// ---- Shrinker --------------------------------------------------------------

bool has_kind(const Program& p, OpKind k) {
  for (const Op& op : p) {
    if (op.kind == k) return true;
  }
  return false;
}

TEST(Shrinker, DdminReducesToTheFailureCore) {
  // Synthetic failure: the "bug" needs one kSetEvent and one kPush,
  // everything else is noise the shrinker should strip.
  Program prog;
  for (std::uint32_t i = 0; i < 20; ++i) prog.push_back({OpKind::kSleeper, i, 1});
  prog.push_back({OpKind::kSetEvent, 0, 0});
  for (std::uint32_t i = 0; i < 20; ++i) prog.push_back({OpKind::kAdvance, i, 0});
  prog.push_back({OpKind::kPush, 0, 0});
  for (std::uint32_t i = 0; i < 10; ++i) prog.push_back({OpKind::kCancel, i, 0});

  const auto still_failing = [](const Program& p) {
    return has_kind(p, OpKind::kSetEvent) && has_kind(p, OpKind::kPush);
  };
  ASSERT_TRUE(still_failing(prog));
  const Program small = shrink(prog, still_failing);
  EXPECT_EQ(small.size(), 2u);
  EXPECT_TRUE(still_failing(small));
}

TEST(Shrinker, MinimizesOpArguments) {
  Program prog;
  prog.push_back({OpKind::kSleeper, 2400, 3});
  const auto still_failing = [](const Program& p) {
    return !p.empty() && p[0].a > 0;
  };
  const Program small = shrink(prog, still_failing);
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small[0].a, 1u);  // halving bottoms out at the smallest failing value
  EXPECT_EQ(small[0].b, 0u);
}

TEST(Shrinker, ShrunkSeedStillReproducesThroughRunProgram) {
  // A shrink driven by the real execution predicate must preserve the
  // property "runs clean", i.e. shrinking a passing program never invents a
  // failure (sub-lists of valid programs are valid).
  const Program prog = generate(0xabcde, Mode::kFull);
  const Outcome out = run_program(prog);
  ASSERT_TRUE(out.violations.empty()) << out.violations.front();
  Program half(prog.begin(), prog.begin() + prog.size() / 2);
  const Outcome half_out = run_program(half);
  EXPECT_TRUE(half_out.violations.empty()) << half_out.violations.front();
}

// ---- Report formats --------------------------------------------------------

TEST(Fuzz, ReportFormatsAreReplayable) {
  const Program prog = generate(99, Mode::kChannelMix);
  const std::string log = format_program(99, Mode::kChannelMix, prog);
  EXPECT_NE(log.find("# vmstorm-fuzz v1 seed=0x63 mode=channel_mix"),
            std::string::npos);
  EXPECT_NE(log.find("ops=" + std::to_string(prog.size())), std::string::npos);
  const std::string repro = cxx_repro(99, Mode::kChannelMix, prog);
  EXPECT_NE(repro.find("const Program prog = {"), std::string::npos);
  EXPECT_NE(repro.find("run_program(prog)"), std::string::npos);
}

}  // namespace
}  // namespace vmstorm::fuzz
