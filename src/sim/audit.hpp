// Runtime invariant auditing for the simulator.
//
// vmlint proves what it can statically (no discarded Tasks, no unguarded
// waiter schedules); the Auditor checks what only a running simulation can
// show: that every wakeup delivered to a coroutine finds its waiter alive,
// that every dropped wakeup really had a dead waiter behind it, and that
// simulated time never moves backwards. The engine and the wake paths in
// sim/causal.hpp call these hooks; with no auditor attached (the default)
// every hook site is a null-pointer check, so production simulations pay
// one branch per event.
//
// The fuzz harness (tests/fuzz/) attaches an InvariantAuditor while driving
// randomized spawn/cancel/wakeup interleavings; shrunk failures become
// regression tests in tests/sim/fuzz_regressions_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vmstorm::sim {

/// Thrown by InvariantAuditor in fail-fast mode. Dead-waiter resumption is
/// detected *before* the engine resumes the handle, so failing fast here
/// turns a use-after-free into a clean, catchable failure the shrinker can
/// replay deterministically.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::runtime_error(what) {}
};

/// Observer interface over the engine's wakeup lifecycle. Attach with
/// Engine::set_auditor before running; all hooks default to no-ops.
class Auditor {
 public:
  virtual ~Auditor() = default;

  /// A WaitRecord-guarded wakeup was enqueued as event `seq`
  /// (sim/causal.hpp wake_waiter, Engine sleep suspension). The WaitRef
  /// pins the pooled record (and its generation) until dispatch.
  virtual void on_wakeup_scheduled(std::uint64_t seq, WaitRef rec) {
    (void)seq;
    (void)rec;
  }

  /// Event `seq` reached the head of the queue at simulated time `time`.
  /// `dropped` is true when the engine discarded it because its liveness
  /// guard read false; otherwise the handle is resumed right after this
  /// hook returns.
  virtual void on_event(std::uint64_t seq, SimTime time, bool dropped) {
    (void)seq;
    (void)time;
    (void)dropped;
  }
};

/// The runtime invariant oracles the fuzz harness checks on every program:
///
///   dead-waiter-resumption  an event about to be resumed maps to a
///                           WaitRecord whose waiter was destroyed — the
///                           exact bug the alive_guard machinery exists to
///                           prevent (e.g. a guard dropped from a wake path);
///   live-waiter-drop        the engine dropped a wakeup whose record still
///                           reads alive (a lost wakeup);
///   monotone-time           event dispatch times never decrease.
///
/// dropped_wakeups() counts guarded drops seen through the hooks; at
/// quiescence it must equal Engine::cancelled_wakeups(), and
/// pending_wakeups() must be zero (every scheduled wakeup was dispatched).
class InvariantAuditor final : public Auditor {
 public:
  /// Throw InvariantViolation at the detection site (default). The harness
  /// relies on this for dead-waiter resumption: the throw unwinds out of
  /// Engine::run before the dead frame would be resumed.
  bool fail_fast = true;

  /// Bound on retained violation messages. Past it, the newest message
  /// overwrites the last slot (first kMaxViolations-1 plus the most recent
  /// survive); violations_total() keeps the true count.
  static constexpr std::size_t kMaxViolations = 64;

  void on_wakeup_scheduled(std::uint64_t seq, WaitRef rec) override {
    // Open-addressed slot pool: steady-state inserts touch existing slots
    // only, so the auditor adds no per-event allocation on the engine's hot
    // path (growth uses the sanctioned construct+move+swap idiom).
    if ((occupied_ + 1) * 2 > slots_.size()) rehash();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(seq) & mask;
    while (slots_[i].state == PendingSlot::kUsed) i = (i + 1) & mask;
    if (slots_[i].state != PendingSlot::kTombstone) ++occupied_;
    slots_[i].seq = seq;
    slots_[i].state = PendingSlot::kUsed;
    slots_[i].rec = std::move(rec);
    ++pending_count_;
  }

  void on_event(std::uint64_t seq, SimTime time, bool dropped) override {
    ++events_seen_;
    if (time < last_time_) {
      fail("monotone-time: event seq " + std::to_string(seq) + " at " +
           std::to_string(time) + "ns after " + std::to_string(last_time_) +
           "ns");
    }
    last_time_ = time;
    WaitRef rec;
    if (!take(seq, rec)) return;  // plain event, no wait record to audit
    if (dropped) {
      ++dropped_wakeups_;
      if (rec->alive) {
        fail("live-waiter-drop: wakeup seq " + std::to_string(seq) +
             " dropped but its waiter is alive");
      }
    } else if (!rec->alive) {
      fail("dead-waiter-resumption: wakeup seq " + std::to_string(seq) +
           " about to resume a destroyed waiter");
    }
  }

  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t dropped_wakeups() const { return dropped_wakeups_; }
  std::size_t pending_wakeups() const { return pending_count_; }

  /// Violations raised so far, including any whose message was overwritten
  /// once the retained buffer filled.
  std::uint64_t violations_total() const { return violation_count_; }

  /// Retained violation messages, oldest first (bounded by kMaxViolations).
  std::vector<std::string> violations() const {
    const std::size_t n = violation_count_ < kMaxViolations
                              ? static_cast<std::size_t>(violation_count_)
                              : kMaxViolations;
    return std::vector<std::string>(violations_, violations_ + n);
  }

 private:
  /// Slots are probed from mix64(seq): sequence numbers are consecutive, so
  /// identity hashing would cluster linear probes.
  struct PendingSlot {
    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kUsed = 1;
    static constexpr std::uint8_t kTombstone = 2;
    std::uint64_t seq = 0;
    std::uint8_t state = kEmpty;
    WaitRef rec;
  };

  /// Grows (power of two) and reinserts live entries, clearing tombstones.
  void rehash() {
    std::size_t next = slots_.empty() ? 64 : slots_.size();
    while ((pending_count_ + 1) * 2 > next) next *= 2;
    std::vector<PendingSlot> bigger(next);
    const std::size_t mask = next - 1;
    for (PendingSlot& s : slots_) {
      if (s.state != PendingSlot::kUsed) continue;
      std::size_t i = mix64(s.seq) & mask;
      while (bigger[i].state == PendingSlot::kUsed) i = (i + 1) & mask;
      bigger[i].seq = s.seq;
      bigger[i].state = PendingSlot::kUsed;
      bigger[i].rec = std::move(s.rec);
    }
    slots_.swap(bigger);
    occupied_ = pending_count_;
  }

  /// Removes seq's record into `out`; leaves a tombstone so later probe
  /// chains stay intact. False when seq was never a guarded wakeup.
  bool take(std::uint64_t seq, WaitRef& out) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(seq) & mask;
    while (slots_[i].state != PendingSlot::kEmpty) {
      if (slots_[i].state == PendingSlot::kUsed && slots_[i].seq == seq) {
        out = std::move(slots_[i].rec);
        slots_[i].rec.reset();
        slots_[i].state = PendingSlot::kTombstone;
        --pending_count_;
        return true;
      }
      i = (i + 1) & mask;
    }
    return false;
  }

  void fail(std::string msg) {
    const std::size_t slot =
        violation_count_ < kMaxViolations
            ? static_cast<std::size_t>(violation_count_)
            : kMaxViolations - 1;
    violations_[slot] = std::move(msg);
    ++violation_count_;
    if (fail_fast) throw InvariantViolation(violations_[slot]);
  }

  std::vector<PendingSlot> slots_;
  std::size_t occupied_ = 0;       ///< used + tombstone slots
  std::size_t pending_count_ = 0;  ///< used slots only
  SimTime last_time_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t dropped_wakeups_ = 0;
  std::uint64_t violation_count_ = 0;
  std::string violations_[kMaxViolations];
};

}  // namespace vmstorm::sim
