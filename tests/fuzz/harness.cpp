#include "fuzz/harness.hpp"

#include <coroutine>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/recorder.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "storage/disk.hpp"

namespace vmstorm::fuzz {
namespace {

constexpr std::size_t kPermits = 2;
constexpr std::uint64_t kDiskKeys = 16;

storage::DiskConfig disk_config() {
  // Tiny budgets so random programs hit eviction and dirty-page throttling.
  storage::DiskConfig cfg;
  cfg.rate = mb_per_s(200.0);
  cfg.seek_overhead = sim::from_micros(100.0);
  cfg.cache_capacity = 64_KiB;
  cfg.dirty_limit = 32_KiB;
  return cfg;
}

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kSleeper: return "sleeper";
    case OpKind::kChain: return "chain";
    case OpKind::kAcquirer: return "acquirer";
    case OpKind::kProducer: return "producer";
    case OpKind::kConsumer: return "consumer";
    case OpKind::kServer: return "server";
    case OpKind::kDiskRead: return "disk_read";
    case OpKind::kDiskWrite: return "disk_write";
    case OpKind::kDiskFlush: return "disk_flush";
    case OpKind::kWaiter: return "waiter";
    case OpKind::kFarSleeper: return "far_sleeper";
    case OpKind::kJoinTarget: return "join_target";
    case OpKind::kJoiner: return "joiner";
    case OpKind::kSetEvent: return "set_event";
    case OpKind::kPush: return "push";
    case OpKind::kCancel: return "cancel";
    case OpKind::kAdvance: return "advance";
  }
  return "?";
}

const char* kind_enum(OpKind k) {
  switch (k) {
    case OpKind::kSleeper: return "kSleeper";
    case OpKind::kChain: return "kChain";
    case OpKind::kAcquirer: return "kAcquirer";
    case OpKind::kProducer: return "kProducer";
    case OpKind::kConsumer: return "kConsumer";
    case OpKind::kServer: return "kServer";
    case OpKind::kDiskRead: return "kDiskRead";
    case OpKind::kDiskWrite: return "kDiskWrite";
    case OpKind::kDiskFlush: return "kDiskFlush";
    case OpKind::kWaiter: return "kWaiter";
    case OpKind::kFarSleeper: return "kFarSleeper";
    case OpKind::kJoinTarget: return "kJoinTarget";
    case OpKind::kJoiner: return "kJoiner";
    case OpKind::kSetEvent: return "kSetEvent";
    case OpKind::kPush: return "kPush";
    case OpKind::kCancel: return "kCancel";
    case OpKind::kAdvance: return "kAdvance";
  }
  return "?";
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kFull: return "full";
    case Mode::kSleepCancel: return "sleep_cancel";
    case Mode::kChannelMix: return "channel_mix";
    case Mode::kQueueChurn: return "queue_churn";
  }
  return "?";
}

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  char* p = buf + sizeof(buf);
  *--p = '\0';
  do {
    *--p = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  } while (v != 0);
  *--p = 'x';
  *--p = '0';
  return std::string(p);
}

/// Per-spawned-task bookkeeping. Pointers into the interpreter's task table
/// are stable (unique_ptr-owned), so coroutine bodies hold them across
/// suspensions.
struct TaskState {
  std::uint32_t index = 0;
  OpKind kind = OpKind::kSleeper;
  bool cancellable = false;
  bool finished = false;   // body ran to completion
  bool destroyed = false;  // frame destroyed (kCancel or teardown)
  bool holds_permit = false;  // between acquire-resume and release
  bool sem_granted = false;   // the semaphore wakeup was delivered
  std::coroutine_handle<> handle{};  // cancellable frames (driver-owned)
  sim::JoinHandle join{};            // kJoinTarget (engine-spawned)
};

/// One program execution: the simulated world, the driver-owned frames, and
/// the bookkeeping the quiescence oracles compare against.
struct World {
  sim::Engine engine;
  obs::Recorder recorder;
  sim::InvariantAuditor auditor;
  bool attached = attach(engine, recorder, auditor);
  sim::Semaphore sem{engine, kPermits, "fuzz.sem"};
  sim::Channel<std::uint32_t> chan{engine, "fuzz.chan"};
  sim::Event event{engine, "fuzz.event"};
  sim::FifoServer server{engine, mb_per_s(100.0), sim::from_micros(50.0)};
  storage::Disk disk{engine, disk_config()};

  std::vector<std::unique_ptr<TaskState>> tasks;
  std::vector<std::uint32_t> sem_arrivals;   // queued acquire order
  std::vector<std::uint32_t> sem_grants;     // delivered grant order
  std::vector<std::uint32_t> server_arrivals;
  std::vector<std::uint32_t> server_completions;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t sem_queued = 0;
  std::uint64_t leaked_permits = 0;  // cancelled while holding a permit
  std::uint64_t expected_abandoned_sleeps = 0;
  std::uint64_t cancels_applied = 0;
  std::uint64_t tasks_destroyed = 0;
  std::uint32_t next_item = 0;

  World() { server.set_trace("fuzz.server", 999); }

  static bool attach(sim::Engine& e, obs::Recorder& r,
                     sim::InvariantAuditor& a) {
    e.set_recorder(&r);
    e.set_auditor(&a);
    r.trace.set_enabled(true);
    return true;
  }

  /// The harness's own entries in the event log: every task milestone is
  /// an instant event, so two runs of a seed must interleave identically
  /// to produce identical jsonl.
  void mark(std::uint32_t lane, const char* what) {
    recorder.trace.instant(engine.now_seconds(), lane, "fuzz", what);
  }

  TaskState* new_task(OpKind kind, bool cancellable) {
    auto st = std::make_unique<TaskState>();
    st->index = static_cast<std::uint32_t>(tasks.size());
    st->kind = kind;
    st->cancellable = cancellable;
    tasks.push_back(std::move(st));
    return tasks.back().get();
  }

  /// Starts a driver-owned frame: run to the first suspension, keep the
  /// handle for kCancel / teardown destruction.
  static std::coroutine_handle<> start(sim::Task<void> task) {
    auto h = task.release();
    h.resume();
    return h;
  }

  void exec(const Op& op);
  void check_quiescent(Outcome& out);
  void teardown();
};

// ---- Cancellable task bodies (free coroutines: no captures) ---------------

sim::Task<void> sleeper_body(World* w, TaskState* st, std::uint32_t total_us,
                             std::uint32_t slices) {
  const std::uint32_t n = slices + 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    co_await w->engine.sleep(sim::from_micros(total_us / n));
  }
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> chain_level(World* w, std::uint32_t us_per,
                            std::uint32_t depth) {
  co_await w->engine.sleep(sim::from_micros(us_per));
  if (depth > 0) co_await chain_level(w, us_per, depth - 1);
}

sim::Task<void> chain_body(World* w, TaskState* st, std::uint32_t us_per,
                           std::uint32_t depth) {
  co_await chain_level(w, us_per, depth);
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> acquirer_body(World* w, TaskState* st,
                              std::uint32_t hold_us) {
  // available()==0 predicts the awaiter's slow path exactly: we are
  // single-threaded and there is no suspension between here and acquire().
  const bool queued = w->sem.available() == 0;
  if (queued) {
    w->sem_arrivals.push_back(st->index);
    ++w->sem_queued;
  }
  co_await w->sem.acquire();
  st->sem_granted = true;
  st->holds_permit = true;
  if (queued) w->sem_grants.push_back(st->index);
  w->mark(st->index, "sem.grant");
  co_await w->engine.sleep(sim::from_micros(hold_us));
  w->sem.release();
  st->holds_permit = false;
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> producer_body(World* w, TaskState* st, std::uint32_t count,
                              std::uint32_t gap_us) {
  for (std::uint32_t i = 0; i < count; ++i) {
    w->chan.push(w->next_item++);
    ++w->pushed;
    w->mark(st->index, "push");
    co_await w->engine.sleep(sim::from_micros(gap_us));
  }
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> consumer_body(World* w, TaskState* st, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t item = co_await w->chan.pop();
    (void)item;
    ++w->popped;
    w->mark(st->index, "pop");
  }
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> server_body(World* w, TaskState* st, std::uint32_t bytes) {
  w->server_arrivals.push_back(st->index);
  co_await w->server.serve(bytes);
  w->server_completions.push_back(st->index);
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> disk_read_body(World* w, TaskState* st, std::uint32_t key,
                               std::uint32_t bytes) {
  co_await w->disk.read(1 + key % kDiskKeys, 1 + bytes % (32 * 1024));
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> disk_write_body(World* w, TaskState* st, std::uint32_t bytes,
                                std::uint32_t key) {
  co_await w->disk.write_async(1 + bytes % (16 * 1024), 1 + key % kDiskKeys);
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> disk_flush_body(World* w, TaskState* st) {
  co_await w->disk.flush();
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> waiter_body(World* w, TaskState* st) {
  co_await w->event.wait();
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> far_sleeper_body(World* w, TaskState* st, std::uint32_t ms) {
  co_await w->engine.sleep(sim::from_millis(static_cast<double>(ms)));
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> join_target_body(World* w, TaskState* st,
                                 std::uint32_t sleep_us) {
  co_await w->engine.sleep(sim::from_micros(sleep_us));
  st->finished = true;
  w->mark(st->index, "done");
}

sim::Task<void> joiner_body(World* w, TaskState* st, sim::JoinHandle target) {
  if (target.valid()) co_await target.join();
  st->finished = true;
  w->mark(st->index, "done");
}

// ---- Interpreter -----------------------------------------------------------

void World::exec(const Op& op) {
  switch (op.kind) {
    case OpKind::kSleeper: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(sleeper_body(this, st, op.a % 2501, op.b % 4));
      break;
    }
    case OpKind::kChain: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(chain_body(this, st, op.a % 801, op.b % 5));
      break;
    }
    case OpKind::kAcquirer: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(acquirer_body(this, st, op.a % 1501));
      break;
    }
    case OpKind::kProducer: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(producer_body(this, st, op.a % 8 + 1, op.b % 701));
      break;
    }
    case OpKind::kConsumer: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(consumer_body(this, st, op.a % 8 + 1));
      break;
    }
    case OpKind::kServer: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(server_body(this, st, op.a));
      break;
    }
    case OpKind::kDiskRead: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(disk_read_body(this, st, op.a, op.b));
      break;
    }
    case OpKind::kDiskWrite: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(disk_write_body(this, st, op.a, op.b));
      break;
    }
    case OpKind::kDiskFlush: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(disk_flush_body(this, st));
      break;
    }
    case OpKind::kWaiter: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(waiter_body(this, st));
      break;
    }
    case OpKind::kFarSleeper: {
      TaskState* st = new_task(op.kind, true);
      st->handle = start(far_sleeper_body(this, st, op.a % 30001));
      break;
    }
    case OpKind::kJoinTarget: {
      TaskState* st = new_task(op.kind, false);
      st->join = engine.spawn(join_target_body(this, st, op.a % 2001));
      break;
    }
    case OpKind::kJoiner: {
      sim::JoinHandle target;
      if (op.a < tasks.size() && tasks[op.a]->kind == OpKind::kJoinTarget) {
        target = tasks[op.a]->join;
      }
      TaskState* st = new_task(op.kind, true);
      st->handle = start(joiner_body(this, st, target));
      break;
    }
    case OpKind::kSetEvent:
      event.set();
      break;
    case OpKind::kPush:
      chan.push(next_item++);
      ++pushed;
      break;
    case OpKind::kCancel: {
      if (op.a >= tasks.size()) break;
      TaskState* t = tasks[op.a].get();
      if (!t->cancellable || t->finished || t->destroyed) break;
      // An unfinished sleeper/chain/far-sleeper is necessarily suspended on
      // an engine sleep with its wakeup queued; destroying it abandons
      // exactly one.
      if (t->kind == OpKind::kSleeper || t->kind == OpKind::kChain ||
          t->kind == OpKind::kFarSleeper) {
        ++expected_abandoned_sleeps;
      }
      if (t->holds_permit) ++leaked_permits;
      mark(t->index, "cancel");
      t->handle.destroy();
      t->destroyed = true;
      ++tasks_destroyed;
      ++cancels_applied;
      break;
    }
    case OpKind::kAdvance:
      engine.run(engine.now() + sim::from_micros(op.a % 4001));
      break;
  }
}

void append_seq(std::string* out, const char* label,
                const std::vector<std::uint32_t>& seq) {
  *out += label;
  *out += "[";
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i != 0) *out += ",";
    *out += std::to_string(seq[i]);
  }
  *out += "]";
}

void World::check_quiescent(Outcome& out) {
  auto violation = [&out](std::string msg) {
    out.violations.push_back(std::move(msg));
  };

  // Wakeup accounting: every scheduled wakeup was dispatched, and the
  // engine's dropped-wakeup counter agrees with the auditor's.
  if (auditor.pending_wakeups() != 0) {
    violation("wakeup-accounting: " +
              std::to_string(auditor.pending_wakeups()) +
              " scheduled wakeup(s) never dispatched at quiescence");
  }
  if (engine.cancelled_wakeups() != auditor.dropped_wakeups()) {
    violation("wakeup-accounting: engine cancelled_wakeups=" +
              std::to_string(engine.cancelled_wakeups()) +
              " != auditor dropped_wakeups=" +
              std::to_string(auditor.dropped_wakeups()));
  }

  // Engine-spawned tasks (join targets, disk flushers) always complete.
  if (engine.live_tasks() != 0) {
    violation("liveness: " + std::to_string(engine.live_tasks()) +
              " engine-spawned task(s) blocked at quiescence");
  }

  // Permit conservation: every permit is either available or was leaked by
  // cancelling a holder mid-hold (tracked op by op).
  const std::size_t expect_avail =
      kPermits - static_cast<std::size_t>(leaked_permits);
  if (sem.available() != expect_avail) {
    violation("permit-conservation: " + std::to_string(sem.available()) +
              " available, expected " + std::to_string(expect_avail) + " (" +
              std::to_string(leaked_permits) + " leaked by cancellation)");
  }

  // Semaphore FIFO under cancellation: delivered grants are exactly the
  // queued arrivals that survived to resumption, in arrival order.
  std::vector<std::uint32_t> expect_grants;
  for (std::uint32_t id : sem_arrivals) {
    if (tasks[id]->sem_granted) expect_grants.push_back(id);
  }
  if (sem_grants != expect_grants) {
    std::string msg = "sem-fifo: ";
    append_seq(&msg, "granted=", sem_grants);
    append_seq(&msg, " expected=", expect_grants);
    violation(std::move(msg));
  }

  // FifoServer FIFO: completions in arrival order (cancelled requests
  // consume their slot but never complete).
  std::vector<std::uint32_t> expect_completions;
  for (std::uint32_t id : server_arrivals) {
    if (tasks[id]->finished) expect_completions.push_back(id);
  }
  if (server_completions != expect_completions) {
    std::string msg = "server-fifo: ";
    append_seq(&msg, "completed=", server_completions);
    append_seq(&msg, " expected=", expect_completions);
    violation(std::move(msg));
  }

  // Server accounting: a request stops counting as in flight when it
  // completes or when its waiter is destroyed.
  if (server.inflight() != 0) {
    violation("server-inflight: " + std::to_string(server.inflight()) +
              " request(s) still in flight at quiescence");
  }

  // Channel conservation: nothing is lost when consumers are destroyed —
  // an item routed to a dead consumer is redelivered or stays queued.
  if (pushed != popped + chan.size()) {
    violation("channel-conservation: pushed=" + std::to_string(pushed) +
              " != popped=" + std::to_string(popped) + " + queued=" +
              std::to_string(chan.size()));
  }

  // Dirty-page conservation: flushers are engine-spawned and always drain.
  if (disk.dirty_bytes() != 0) {
    violation("dirty-conservation: " + std::to_string(disk.dirty_bytes()) +
              " dirty bytes at quiescence");
  }
}

void World::teardown() {
  // Destroy the frames still parked on waiter lists (never-set events,
  // starved acquirers, unfed consumers) and the completed frames sitting at
  // their final suspend point. Waiter records go dead; the queue is empty,
  // so nothing is ever resumed afterwards.
  for (auto& st : tasks) {
    if (st->cancellable && !st->destroyed) {
      st->handle.destroy();
      st->destroyed = true;
      ++tasks_destroyed;
    }
  }
}

}  // namespace

// ---- Generator -------------------------------------------------------------

Program generate(std::uint64_t seed, Mode mode) {
  struct Choice {
    OpKind kind;
    std::uint32_t weight;
  };
  static constexpr Choice kFullTable[] = {
      {OpKind::kSleeper, 10}, {OpKind::kChain, 6},     {OpKind::kAcquirer, 12},
      {OpKind::kProducer, 7}, {OpKind::kConsumer, 7},  {OpKind::kServer, 8},
      {OpKind::kDiskRead, 6}, {OpKind::kDiskWrite, 6}, {OpKind::kDiskFlush, 2},
      {OpKind::kWaiter, 4},   {OpKind::kJoinTarget, 4}, {OpKind::kJoiner, 4},
      {OpKind::kSetEvent, 2}, {OpKind::kPush, 5},      {OpKind::kCancel, 16},
      {OpKind::kAdvance, 21},
  };
  static constexpr Choice kSleepTable[] = {
      {OpKind::kSleeper, 30},
      {OpKind::kChain, 12},
      {OpKind::kCancel, 30},
      {OpKind::kAdvance, 28},
  };
  static constexpr Choice kChannelTable[] = {
      {OpKind::kProducer, 22}, {OpKind::kConsumer, 20}, {OpKind::kPush, 10},
      {OpKind::kCancel, 24},   {OpKind::kAdvance, 24},
  };
  static constexpr Choice kChurnTable[] = {
      {OpKind::kSleeper, 26}, {OpKind::kChain, 8}, {OpKind::kFarSleeper, 12},
      {OpKind::kCancel, 30},  {OpKind::kAdvance, 24},
  };
  const Choice* table = kFullTable;
  std::size_t table_n = std::size(kFullTable);
  if (mode == Mode::kSleepCancel) {
    table = kSleepTable;
    table_n = std::size(kSleepTable);
  } else if (mode == Mode::kChannelMix) {
    table = kChannelTable;
    table_n = std::size(kChannelTable);
  } else if (mode == Mode::kQueueChurn) {
    table = kChurnTable;
    table_n = std::size(kChurnTable);
  }
  std::uint32_t total_weight = 0;
  for (std::size_t i = 0; i < table_n; ++i) total_weight += table[i].weight;

  Rng rng = Rng(seed).fork(static_cast<std::uint64_t>(mode));
  const std::size_t n_ops = 16 + rng.uniform_u64(105);
  Program prog;
  prog.reserve(n_ops);
  std::uint32_t spawns = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    std::uint64_t pick = rng.uniform_u64(total_weight);
    OpKind kind = table[0].kind;
    for (std::size_t k = 0; k < table_n; ++k) {
      if (pick < table[k].weight) {
        kind = table[k].kind;
        break;
      }
      pick -= table[k].weight;
    }
    Op op{kind, 0, 0};
    switch (kind) {
      case OpKind::kSleeper:
        // Churn mode biases toward zero-length sleeps: every slice lands on
        // the current tick, the queue's equal-time FIFO fan-out case.
        op.a = mode == Mode::kQueueChurn && rng.uniform_u64(100) < 40
                   ? 0
                   : static_cast<std::uint32_t>(rng.uniform_u64(2501));
        op.b = static_cast<std::uint32_t>(rng.uniform_u64(4));
        break;
      case OpKind::kChain:
        op.a = static_cast<std::uint32_t>(rng.uniform_u64(801));
        op.b = static_cast<std::uint32_t>(rng.uniform_u64(5));
        break;
      case OpKind::kAcquirer:
        op.a = static_cast<std::uint32_t>(rng.uniform_u64(1501));
        break;
      case OpKind::kProducer:
        op.a = static_cast<std::uint32_t>(rng.uniform_u64(8));
        op.b = static_cast<std::uint32_t>(rng.uniform_u64(701));
        break;
      case OpKind::kConsumer:
        op.a = static_cast<std::uint32_t>(rng.uniform_u64(8));
        break;
      case OpKind::kServer:
        op.a = static_cast<std::uint32_t>(1 + rng.uniform_u64(32 * 1024));
        break;
      case OpKind::kDiskRead:
      case OpKind::kDiskWrite:
        op.a = static_cast<std::uint32_t>(rng.uniform_u64(32 * 1024));
        op.b = static_cast<std::uint32_t>(rng.uniform_u64(32 * 1024));
        break;
      case OpKind::kDiskFlush:
      case OpKind::kWaiter:
      case OpKind::kSetEvent:
      case OpKind::kPush:
        break;
      case OpKind::kFarSleeper:
        // Milliseconds, up to 30 s: long after every other wakeup, so the
        // drain pops across a wide spread of times.
        op.a = static_cast<std::uint32_t>(1 + rng.uniform_u64(30000));
        break;
      case OpKind::kJoinTarget:
        op.a = static_cast<std::uint32_t>(rng.uniform_u64(2001));
        break;
      case OpKind::kJoiner:
      case OpKind::kCancel:
        if (spawns == 0) {
          op.kind = OpKind::kAdvance;
          op.a = static_cast<std::uint32_t>(rng.uniform_u64(4001));
        } else {
          op.a = static_cast<std::uint32_t>(rng.uniform_u64(spawns));
        }
        break;
      case OpKind::kAdvance:
        op.a = static_cast<std::uint32_t>(rng.uniform_u64(4001));
        break;
    }
    if (op.kind != OpKind::kSetEvent && op.kind != OpKind::kPush &&
        op.kind != OpKind::kCancel && op.kind != OpKind::kAdvance) {
      ++spawns;
    }
    prog.push_back(op);
  }
  return prog;
}

std::string format_program(std::uint64_t seed, Mode mode,
                           const Program& prog) {
  std::string out = "# vmstorm-fuzz v1 seed=" + hex_u64(seed) + " mode=" +
                    mode_name(mode) + " ops=" + std::to_string(prog.size()) +
                    "\n";
  for (const Op& op : prog) {
    out += kind_name(op.kind);
    out += " a=" + std::to_string(op.a) + " b=" + std::to_string(op.b) + "\n";
  }
  return out;
}

std::string cxx_repro(std::uint64_t seed, Mode mode, const Program& prog) {
  std::string out = "// seed " + hex_u64(seed) + " mode " + mode_name(mode) +
                    " — " + std::to_string(prog.size()) + " op(s)\n";
  out += "const Program prog = {\n";
  for (const Op& op : prog) {
    out += "    {OpKind::";
    out += kind_enum(op.kind);
    out += ", " + std::to_string(op.a) + ", " + std::to_string(op.b) + "},\n";
  }
  out += "};\n";
  out += "const Outcome out = run_program(prog);\n";
  out += "EXPECT_TRUE(out.violations.empty());\n";
  return out;
}

// ---- Execution + oracles ---------------------------------------------------

std::string Outcome::summary() const {
  return "events=" + std::to_string(events) + " cancelled_wakeups=" +
         std::to_string(cancelled_wakeups) + " cancels=" +
         std::to_string(cancels_applied) + " pushed=" +
         std::to_string(pushed) + " popped=" + std::to_string(popped) +
         " sem_queued=" + std::to_string(sem_queued) + " spawned=" +
         std::to_string(tasks_spawned) + " end=" +
         std::to_string(end_seconds) + "s violations=" +
         std::to_string(violations.size());
}

Outcome run_program(const Program& prog, RunOptions opt) {
  World w;
  Outcome out;
  try {
    for (const Op& op : prog) w.exec(op);
    w.engine.run();  // drain to quiescence
    if (opt.check_quiescent) w.check_quiescent(out);
  } catch (const sim::InvariantViolation& v) {
    out.violations.push_back(v.what());
  }
  w.teardown();
  out.events = w.engine.events_processed();
  out.cancelled_wakeups = w.engine.cancelled_wakeups();
  out.dropped_wakeups = w.auditor.dropped_wakeups();
  out.expected_abandoned_sleeps = w.expected_abandoned_sleeps;
  out.cancels_applied = w.cancels_applied;
  out.pushed = w.pushed;
  out.popped = w.popped;
  out.channel_left = w.chan.size();
  out.sem_queued = w.sem_queued;
  out.tasks_spawned = w.tasks.size();
  out.tasks_destroyed = w.tasks_destroyed;
  out.end_seconds = w.engine.now_seconds();
  out.event_log = w.recorder.trace.jsonl();
  return out;
}

// ---- Shrinker --------------------------------------------------------------

Program shrink(const Program& prog,
               const std::function<bool(const Program&)>& still_failing) {
  Program cur = prog;
  // ddmin over op chunks: drop [start, start+chunk) while the failure
  // persists, halving chunk size as reductions stop landing.
  std::size_t gran = 2;
  while (cur.size() >= 2) {
    const std::size_t chunk = (cur.size() + gran - 1) / gran;
    bool reduced = false;
    for (std::size_t start = 0; start < cur.size(); start += chunk) {
      Program cand;
      cand.reserve(cur.size());
      for (std::size_t i = 0; i < cur.size(); ++i) {
        if (i < start || i >= start + chunk) cand.push_back(cur[i]);
      }
      if (cand.empty()) continue;
      if (still_failing(cand)) {
        cur = std::move(cand);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk == 1) break;
      gran = gran * 2 < cur.size() ? gran * 2 : cur.size();
    }
  }
  // Argument minimization: halve each surviving op's fields toward zero.
  for (std::size_t i = 0; i < cur.size(); ++i) {
    for (int field = 0; field < 2; ++field) {
      while ((field == 0 ? cur[i].a : cur[i].b) > 0) {
        Program cand = cur;
        std::uint32_t& v = field == 0 ? cand[i].a : cand[i].b;
        v /= 2;
        if (v == (field == 0 ? cur[i].a : cur[i].b)) break;
        if (!still_failing(cand)) break;
        cur = std::move(cand);
      }
    }
  }
  return cur;
}

std::string check_seed(std::uint64_t seed, Mode mode) {
  const Program prog = generate(seed, mode);
  const Outcome first = run_program(prog);
  const Outcome second = run_program(prog);
  std::vector<std::string> vio = first.violations;
  if (first.event_log != second.event_log) {
    vio.push_back(
        "nondeterminism: same-seed double run produced different event logs");
  } else if (first.events != second.events ||
             first.end_seconds != second.end_seconds ||
             first.cancelled_wakeups != second.cancelled_wakeups) {
    vio.push_back("nondeterminism: same-seed double run counters diverged (" +
                  first.summary() + " vs " + second.summary() + ")");
  }
  if (vio.empty()) return "";

  const auto still_failing = [](const Program& cand) {
    const Outcome a = run_program(cand);
    if (a.failed()) return true;
    const Outcome b = run_program(cand);
    return a.event_log != b.event_log;
  };
  const Program small = still_failing(prog) ? shrink(prog, still_failing)
                                            : prog;
  std::string report = "fuzz failure: seed=" + hex_u64(seed) + " mode=" +
                       mode_name(mode) + " ops=" + std::to_string(prog.size()) +
                       " shrunk_ops=" + std::to_string(small.size()) + "\n";
  for (const std::string& v : vio) report += "  violation: " + v + "\n";
  report += "decision log (shrunk):\n" + format_program(seed, mode, small);
  report += "C++ reproducer:\n" + cxx_repro(seed, mode, small);
  return report;
}

}  // namespace vmstorm::fuzz
