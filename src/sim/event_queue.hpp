// The engine's event queue: exact (time, seq) dispatch order.
//
// A 4-ary min-heap of 24-byte (time, seq, slot) keys. The move-only events
// themselves sit still in a slab: an event is moved into its slot once on
// enqueue and out once on dequeue, and only its key sifts. The heap array
// is as long as the slab, and its entries past the live heap name the free
// slots. Both grow by the construct+move+swap idiom (the one growth form
// sanctioned on hot paths, see tools/vmlint/rules/hot_path_alloc.py), so a
// steady-state enqueue or dequeue allocates nothing.
//
// seq is unique per engine, so (time, seq) is a total order and the
// dispatch order is exact by construction: equal times pop in schedule
// order. tests/sim/queue_diff_test.cpp checks it against a reference
// std::priority_queue.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "sim/wait_pool.hpp"

namespace vmstorm::sim {

/// One queued coroutine resumption; what Engine::schedule_at enqueues.
/// Move-only: the guard owns a wait-record reference.
struct QueuedEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> handle{};
  std::uint64_t span = 0;  ///< span context restored on resume
  WaitGuard guard{};       ///< unconditional resumption when unarmed
};

class EventQueue {
 public:
  void enqueue(QueuedEvent&& ev);
  /// Pointer to the (time, seq)-minimum pending event, or nullptr when
  /// empty. Valid until the next enqueue/dequeue.
  const QueuedEvent* peek() const {
    return size_ == 0 ? nullptr : &events_[heap_[0].slot];
  }
  /// Removes and returns the minimum. Precondition: !empty().
  QueuedEvent dequeue();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr std::size_t kArity = 4;

  struct Key {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;  ///< index of the event in events_
  };

  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void grow();

  std::vector<QueuedEvent> events_;
  /// heap_[0, size_) is the heap; heap_[size_, end) holds the free slots.
  std::vector<Key> heap_;
  std::size_t size_ = 0;
};

}  // namespace vmstorm::sim
