// Pooled, generation-stamped wait records.
//
// Every blocking site in the simulator parks a WaitRecord while its coroutine
// is suspended. The bench_scale profile (PR 7) showed the per-wait
// std::make_shared<WaitRecord> — one heap allocation plus one control block
// per suspension, millions per run at 10k instances — as a top hot-path
// allocation source, so records now live in a slab pool owned by the Engine:
//
//   WaitPool   slab of slots with a LIFO free list. The slab grows by the
//              sanctioned construct+move+swap idiom so the growth path stays
//              out of vmlint's hot-path-alloc findings, and the pool carries
//              the engine's wait-record telemetry (created / live / live
//              high-water) with semantics identical to the shared_ptr era:
//              a record counts as live from make() until its last reference
//              drops.
//   WaitRef    intrusive-refcounted handle to a slot; the drop-to-zero of
//              the last WaitRef (or owning WaitGuard) recycles the slot,
//              exactly mirroring the shared_ptr lifetime it replaces, so the
//              sim.wait_records_live gauge keeps byte-identical values.
//   WaitGuard  liveness guard passed to Engine::schedule_at. It owns a
//              reference — pinning the slot while the wakeup is in flight —
//              and additionally carries the slot's generation stamp.
//   WaitQueue  the FIFO every blocking primitive parks its waiters on, and
//              the one owner of the liveness protocol below.
//
// The generation stamp is the pool's core safety invariant: releasing a slot
// back to the free list bumps its generation, so a stale guard can never read
// a recycled slot as its (long-dead) original waiter — the dynamic twin of
// vmlint's unguarded-waiter rule and the auditor's dead-waiter oracle.
// tests/sim/wait_pool_test.cpp locks the invariant in.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vmstorm::sim {

class Engine;
class WaitPool;
class WaitRef;

/// Liveness record for a suspended waiter. Every waiter list (Event,
/// Semaphore, Channel, JoinState, storage::Disk) is a WaitQueue of WaitRefs
/// to these instead of raw coroutine handles, so a coroutine destroyed while
/// suspended is never resumed: the awaiter's destructor flips `alive`, the
/// wake path skips dead records, and the engine re-checks the guard before
/// resuming an already-queued wakeup.
struct WaitRecord {
  std::coroutine_handle<> handle{};
  bool alive = true;    ///< false once the waiting coroutine frame is gone
  bool resumed = false; ///< set by await_resume: the wakeup was delivered
  bool granted = false; ///< a permit/item was handed over with the wakeup
  std::uint64_t span = 0;        ///< waiter's span context, restored on wake
  std::uint64_t waker_span = 0;  ///< span that released us (wait-edge holder)
  std::uint64_t flow = 0;        ///< open Chrome flow arrow id (0 = none)
  double wait_since = 0;         ///< simulated seconds at suspension
};

/// Free-list slab pool of WaitRecords; see file comment. Owned by the Engine
/// (constructible standalone for tests). Not copyable: WaitRefs hold raw
/// pointers back into it.
class WaitPool {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  WaitPool() = default;
  WaitPool(const WaitPool&) = delete;
  WaitPool& operator=(const WaitPool&) = delete;

  /// Allocates a record (recycling a free slot when one exists), initialises
  /// its fields, and returns an owning handle. Counts toward created/live.
  WaitRef make(std::coroutine_handle<> h, std::uint64_t span,
               double wait_since);

  WaitRecord& record(std::uint32_t slot) { return slots_[slot].rec; }
  const WaitRecord& record(std::uint32_t slot) const {
    return slots_[slot].rec;
  }
  std::uint32_t generation(std::uint32_t slot) const {
    return slots_[slot].gen;
  }

  /// Generation-checked liveness read: true only when the slot still holds
  /// the generation the guard captured AND that record's waiter is alive. A
  /// recycled slot fails the generation check no matter what the new
  /// occupant's `alive` flag says.
  bool guard_alive(std::uint32_t slot, std::uint32_t gen) const {
    const Slot& s = slots_[slot];
    return s.gen == gen && s.rec.alive;
  }

  // Telemetry (pure functions of the seed, exported via the Engine).
  std::uint64_t created() const { return created_; }
  std::uint64_t live() const { return live_; }
  std::uint64_t live_high_water() const { return live_hw_; }
  /// Slab capacity (allocated slots, free or live) — pool-growth telemetry
  /// for tests; NOT part of the deterministic bench sim section.
  std::size_t capacity() const { return slots_.size(); }

 private:
  friend class WaitRef;
  friend class WaitGuard;

  struct Slot {
    WaitRecord rec{};
    std::uint32_t gen = 0;        ///< bumped on every release-to-free-list
    std::uint32_t refs = 0;       ///< live WaitRef + WaitGuard count
    std::uint32_t next_free = kNoSlot;
  };

  void add_ref(std::uint32_t slot) { ++slots_[slot].refs; }
  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (--s.refs == 0) recycle(slot);
  }
  void recycle(std::uint32_t slot);
  std::uint32_t alloc_slot();
  void grow();

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t created_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t live_hw_ = 0;
};

/// Owning handle to a pooled WaitRecord; copy = add reference, destruction =
/// release (last release recycles the slot and bumps its generation). The
/// drop-in replacement for the former std::shared_ptr<WaitRecord>.
class WaitRef {
 public:
  WaitRef() = default;
  WaitRef(WaitPool* pool, std::uint32_t slot) : pool_(pool), slot_(slot) {
    if (pool_ != nullptr) pool_->add_ref(slot_);
  }
  WaitRef(const WaitRef& o) : pool_(o.pool_), slot_(o.slot_) {
    if (pool_ != nullptr) pool_->add_ref(slot_);
  }
  WaitRef(WaitRef&& o) noexcept : pool_(o.pool_), slot_(o.slot_) {
    o.pool_ = nullptr;
    o.slot_ = WaitPool::kNoSlot;
  }
  WaitRef& operator=(const WaitRef& o) {
    WaitRef tmp(o);
    swap(tmp);
    return *this;
  }
  WaitRef& operator=(WaitRef&& o) noexcept {
    WaitRef tmp(std::move(o));
    swap(tmp);
    return *this;
  }
  ~WaitRef() {
    if (pool_ != nullptr) pool_->release(slot_);
  }

  void swap(WaitRef& o) noexcept {
    std::swap(pool_, o.pool_);
    std::swap(slot_, o.slot_);
  }
  void reset() { WaitRef{}.swap(*this); }

  explicit operator bool() const { return pool_ != nullptr; }
  WaitRecord* operator->() const { return &pool_->record(slot_); }
  WaitRecord& operator*() const { return pool_->record(slot_); }
  WaitRecord* get() const {
    return pool_ == nullptr ? nullptr : &pool_->record(slot_);
  }

  WaitPool* pool() const { return pool_; }
  std::uint32_t slot() const { return slot_; }
  std::uint32_t generation() const { return pool_->generation(slot_); }

 private:
  WaitPool* pool_ = nullptr;
  std::uint32_t slot_ = WaitPool::kNoSlot;
};

/// Liveness guard over a pooled WaitRecord, the schedule_at counterpart of
/// the former aliasing shared_ptr<const bool>. Owns a reference (so a queued
/// wakeup pins its record, matching the old lifetime exactly) and captures
/// the slot's generation at construction; valid() re-checks both. Move-only:
/// a guard travels from the blocking site into the event queue and dies when
/// the wakeup is dispatched or dropped.
class WaitGuard {
 public:
  WaitGuard() = default;
  explicit WaitGuard(const WaitRef& ref)
      : ref_(ref), gen_(ref ? ref.generation() : 0) {}
  WaitGuard(const WaitGuard&) = delete;
  WaitGuard& operator=(const WaitGuard&) = delete;
  WaitGuard(WaitGuard&&) noexcept = default;
  WaitGuard& operator=(WaitGuard&&) noexcept = default;

  /// True when no guard was attached — the wakeup is unconditional.
  bool unconditional() const { return !ref_; }
  /// Generation-checked liveness: false for a dead waiter OR a stale stamp.
  bool valid() const { return ref_.pool()->guard_alive(ref_.slot(), gen_); }

 private:
  WaitRef ref_{};
  std::uint32_t gen_ = 0;
};

/// Builds the liveness guard for a record, suitable for passing to
/// Engine::schedule_at/schedule_after. Keeps the record alive until the
/// queued wakeup is consumed or dropped (the name is also the token vmlint's
/// unguarded-waiter rule looks for at schedule sites).
inline WaitGuard alive_guard(const WaitRef& rec) { return WaitGuard{rec}; }

/// The one way a coroutine parks until another process wakes it: a FIFO of
/// pooled WaitRecords plus the resource name its wait edges carry
/// ("sim.join", "disk.dirty", ...). Event, Semaphore, Channel, JoinState and
/// storage::Disk each hold one, so the liveness protocol lives here alone:
/// an awaiter destroyed while parked marks its record dead, every wake skips
/// dead records, and a resumed waiter records its wait edge. The members that
/// touch the engine are defined in sim/causal.hpp.
///
/// Storage is a vector with an index past the already-woken prefix; a wake
/// drops each passed record's reference at once (so pool slots recycle
/// exactly when the waiter lets go) and compacts the prefix, so a queue that
/// never fully drains stays bounded by the waiters still parked on it.
class WaitQueue {
 public:
  /// Parks unless constructed ready. `need` is what wake_while's admit test
  /// sees for this waiter (disk admission's byte count; 0 elsewhere).
  class Awaiter {
   public:
    Awaiter(WaitQueue& queue, bool ready, std::uint64_t need = 0)
        : queue_(&queue), ready_(ready), need_(need) {}
    Awaiter(const Awaiter&) = delete;
    Awaiter& operator=(const Awaiter&) = delete;
    ~Awaiter() {
      if (rec_ && !rec_->resumed) rec_->alive = false;
    }
    bool await_ready() const noexcept { return ready_; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() noexcept;

   protected:
    /// True while parked with a grant from wake_one() in flight: a waiter
    /// destroyed now must pass its permit or item on.
    bool grant_abandoned() const {
      return rec_ && !rec_->resumed && rec_->granted;
    }

   private:
    WaitQueue* queue_;
    bool ready_;
    std::uint64_t need_;
    WaitRef rec_{};
  };

  WaitQueue(Engine& engine, const char* resource)
      : engine_(&engine), resource_(resource) {}
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  Awaiter wait(bool ready, std::uint64_t need = 0) {
    return Awaiter{*this, ready, need};
  }

  /// Wakes live waiters oldest first while admit(need) holds; dead ones on
  /// the way are dropped.
  template <typename Admit>
  void wake_while(Admit admit);
  void wake_all();
  /// Wakes the oldest live waiter with `granted` set (a Semaphore permit or
  /// Channel item rides on the wakeup). False when no live waiter was parked.
  bool wake_one();

  /// Live parked waiters.
  std::size_t waiting() const {
    std::size_t n = 0;
    for (std::size_t i = head_; i < parked_.size(); ++i) {
      if (parked_[i].rec->alive) ++n;
    }
    return n;
  }
  /// Allocated entries — storage telemetry for tests.
  std::size_t capacity() const { return parked_.capacity(); }

 private:
  struct Parked {
    WaitRef rec;
    std::uint64_t need;
  };

  /// The wake loop. With `one` it marks its one wakeup granted and stops
  /// right after it: dead records behind it stay until a later wake drops
  /// them, so their pool slots recycle when they always have.
  template <typename Admit>
  bool wake(Admit admit, bool one);

  Engine* engine_;
  const char* resource_;
  std::vector<Parked> parked_;
  std::size_t head_ = 0;  ///< parked_[0, head_) is woken or dropped
};

}  // namespace vmstorm::sim
