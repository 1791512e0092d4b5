// Seeded random-workload fuzzing harness for the simulator.
//
// Three pieces (see tests/fuzz/README.md for the full design):
//
//   generator    generate(seed, mode) draws a random *program* — a flat op
//                list — from a vmstorm::Rng stream. The op list IS the
//                generator's decision log: no randomness survives into
//                execution, so any sub-list replays deterministically and
//                the shrinker can delta-debug over it.
//   interpreter  run_program() executes the ops against one Engine plus a
//                Semaphore, a Channel, an Event, a FifoServer and a
//                storage::Disk, with a sim::InvariantAuditor attached and
//                the obs tracer recording the event log. Cancellable tasks
//                are driver-owned coroutine frames (Task::release), so
//                kCancel ops destroy them mid-wait — the interleavings the
//                WaitRecord liveness guards exist for.
//   oracles      runtime invariants vmlint cannot check statically:
//                dead-waiter resumption / lost wakeups / monotone time
//                (via the auditor), FIFO fairness of Semaphore and
//                FifoServer under cancellation, conservation of semaphore
//                permits, channel items and dirty bytes under abandonment,
//                exact cancelled_wakeups() accounting, and byte-identical
//                event logs across two runs of the same seed.
//
// On failure, shrink() reduces the op list (ddmin + per-op argument
// minimization) and the harness emits the decision log plus a paste-ready
// C++ reproducer; shrunk cases get committed to
// tests/sim/fuzz_regressions_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vmstorm::fuzz {

enum class OpKind : std::uint8_t {
  kSleeper,     // cancellable: sleeps `a` us total in `b`+1 slices
  kChain,       // cancellable: co_await chain `b`+1 deep, `a` us per level
  kAcquirer,    // cancellable: sem acquire, hold `a` us, release
  kProducer,    // cancellable: push `a`%8+1 items, `b` us gap between
  kConsumer,    // cancellable: pop `a`%8+1 items
  kServer,      // cancellable: FifoServer::serve of `a` bytes
  kDiskRead,    // cancellable: disk.read(key=`a`%16, `b` bytes)
  kDiskWrite,   // cancellable: disk.write_async(`a` bytes, key=`b`%16)
  kDiskFlush,   // cancellable: disk.flush()
  kWaiter,      // cancellable: event.wait()
  kFarSleeper,  // cancellable: sleeps `a` ms — one far-future wakeup
  kJoinTarget,  // engine-spawned sleeper (`a` us); always completes
  kJoiner,      // cancellable: joins spawn index `a` (no-op unless target
                //   exists and is a kJoinTarget)
  kSetEvent,    // driver: event.set()
  kPush,        // driver: push one item into the channel
  kCancel,      // driver: destroy the frame of spawn index `a` if live
  kAdvance,     // driver: run the engine for `a` us of simulated time
};

struct Op {
  OpKind kind;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

using Program = std::vector<Op>;

/// Generator flavors. kFull mixes every op; the focused modes keep the
/// bookkeeping exact for their oracle (see fuzz_test.cpp).
enum class Mode : std::uint8_t {
  kFull,         // everything, cancellation storms included
  kSleepCancel,  // sleepers/chains + cancels only: every cancel of a live
                 //   task abandons exactly one queued sleep wakeup
  kChannelMix,   // producers/consumers/pushes + cancels only
  kQueueChurn,   // event-queue churn: same-tick fan-out bursts, dense
                 //   sleep/cancel storms and far-future outliers, with
                 //   frames destroyed mid-sleep
};

/// Draws a program of 16–120 ops from the seed. Same seed, same program.
Program generate(std::uint64_t seed, Mode mode = Mode::kFull);

/// The decision log: one op per line, `<kind> a=<a> b=<b>`, with a header
/// naming the seed and mode. This is the artifact CI uploads on failure.
std::string format_program(std::uint64_t seed, Mode mode, const Program& prog);

/// A paste-ready C++ initializer list for fuzz_regressions_test.cpp.
std::string cxx_repro(std::uint64_t seed, Mode mode, const Program& prog);

/// Everything one execution produced. `violations` empty means every
/// invariant held; the counters feed the focused property tests and the
/// determinism comparison.
struct Outcome {
  std::vector<std::string> violations;

  std::uint64_t events = 0;             // engine events processed
  std::uint64_t cancelled_wakeups = 0;  // engine counter
  std::uint64_t dropped_wakeups = 0;    // auditor's count of guarded drops
  std::uint64_t expected_abandoned_sleeps = 0;  // harness bookkeeping
  std::uint64_t cancels_applied = 0;    // kCancel ops that destroyed a frame
  std::uint64_t pushed = 0;             // channel items pushed
  std::uint64_t popped = 0;             // channel items popped
  std::uint64_t channel_left = 0;       // items still queued at quiescence
  std::uint64_t sem_queued = 0;         // acquirers that actually queued
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_destroyed = 0;
  double end_seconds = 0;
  std::string event_log;  // obs tracer jsonl — the seed's event order

  bool failed() const { return !violations.empty(); }
  std::string summary() const;
};

struct RunOptions {
  /// Run the quiescent-state oracles (conservation, fairness, accounting)
  /// after the final drain. Off only for experiments.
  bool check_quiescent = true;
};

/// Executes the program and checks every oracle. Deterministic: two calls
/// with the same program produce byte-identical outcomes.
Outcome run_program(const Program& prog, RunOptions opt = {});

/// Delta-debugging shrinker: removes op chunks (ddmin), then minimizes the
/// surviving ops' numeric arguments, re-validating with `still_failing`
/// after each candidate reduction. The predicate is called O(n log n)
/// times; callers bound total work via the predicate itself if needed.
Program shrink(const Program& prog,
               const std::function<bool(const Program&)>& still_failing);

/// One full fuzz iteration: generate, run twice (event-log identity is one
/// of the oracles), and on failure shrink + render a report containing the
/// violations, the shrunk decision log, and a C++ reproducer. Returns the
/// empty string when the seed passes.
std::string check_seed(std::uint64_t seed, Mode mode = Mode::kFull);

}  // namespace vmstorm::fuzz
