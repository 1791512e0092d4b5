#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace vmstorm::sim {

void EventQueue::enqueue(QueuedEvent&& ev) {
  if (size_ == events_.size()) grow();
  const std::uint32_t slot = heap_[size_].slot;
  const Key key{ev.time, ev.seq, slot};
  events_[slot] = std::move(ev);
  // Sift up: move parents down into the hole until the key fits.
  std::size_t i = size_++;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

QueuedEvent EventQueue::dequeue() {
  const std::uint32_t slot = heap_[0].slot;
  // Moving the whole event out (guard included) leaves the slot holding no
  // pool reference, so it can be reused as it is.
  QueuedEvent out = std::move(events_[slot]);
  // Sift down: the last key fills the root's hole, moving the smallest child
  // up until no child beats it.
  const Key last = heap_[--size_];
  std::size_t i = 0;
  while (true) {
    const std::size_t first = i * kArity + 1;
    if (first >= size_) break;
    const std::size_t end = std::min(first + kArity, size_);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  heap_[size_].slot = slot;  // the vacated end of the heap takes the free slot
  return out;
}

void EventQueue::grow() {
  // Only called with every slot in use, so the whole heap array is live.
  const std::size_t old_size = events_.size();
  const std::size_t new_size = old_size == 0 ? 64 : old_size * 2;
  std::vector<QueuedEvent> bigger_slab(new_size);
  for (std::size_t i = 0; i < old_size; ++i) {
    bigger_slab[i] = std::move(events_[i]);
  }
  events_.swap(bigger_slab);
  std::vector<Key> bigger_heap(new_size);
  for (std::size_t i = 0; i < old_size; ++i) bigger_heap[i] = heap_[i];
  for (std::size_t i = old_size; i < new_size; ++i) {
    bigger_heap[i].slot = static_cast<std::uint32_t>(i);
  }
  heap_.swap(bigger_heap);
}

}  // namespace vmstorm::sim
