#include "storage/disk.hpp"

#include <cassert>

#include "obs/recorder.hpp"
#include "sim/causal.hpp"

namespace vmstorm::storage {

Disk::Disk(sim::Engine& engine, DiskConfig cfg)
    : engine_(&engine), cfg_(cfg),
      platter_(engine, cfg.rate, cfg.seek_overhead),
      dirty_waiters_(engine, "disk.dirty"),
      flush_waiters_(engine, "disk.flush") {
  platter_.set_trace("disk", 0);
  if (obs::Recorder* rec = engine.recorder()) {
    obs_cache_hits_ = &rec->metrics.counter("disk.cache_hits");
    obs_cache_misses_ = &rec->metrics.counter("disk.cache_misses");
    obs_queue_wait_ = &rec->metrics.histogram("disk.queue_wait_seconds");
  }
}

void Disk::record_queue_wait() {
  if (obs_queue_wait_) {
    obs_queue_wait_->record(sim::to_seconds(platter_.backlog()));
  }
}

sim::Task<void> Disk::read(std::uint64_t key, Bytes bytes) {
  auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    // Cache hit: promote to MRU; memory-speed, no simulated delay.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    ++cache_hits_;
    if (obs_cache_hits_) obs_cache_hits_->add();
    co_return;
  }
  ++cache_misses_;
  if (obs_cache_misses_) obs_cache_misses_->add();
  record_queue_wait();
  co_await platter_.serve(bytes);
  cache_insert(key, bytes);
}

sim::Task<void> Disk::read_uncached(Bytes bytes) {
  record_queue_wait();
  co_await platter_.serve(bytes);
}

sim::Task<void> Disk::write_sync(Bytes bytes) {
  record_queue_wait();
  co_await platter_.serve(bytes);
}

sim::Task<void> Disk::write_async(Bytes bytes, std::uint64_t cache_key) {
  while (!admits(bytes)) co_await dirty_waiters_.wait(/*ready=*/false, bytes);
  dirty_bytes_ += bytes;
  if (cache_key != 0) cache_insert(cache_key, bytes);
  ++flushes_in_flight_;
  engine_->spawn(flusher(bytes));
}

sim::Task<void> Disk::flusher(Bytes bytes) {
  // Background write-back runs outside any instance's span: the platter
  // time it burns is not on the writer's critical path (the write already
  // completed at admission). Contention it causes still shows up as queue
  // wait on whoever it delays.
  engine_->set_current_span(0);
  record_queue_wait();
  co_await platter_.serve(bytes);
  assert(dirty_bytes_ >= bytes);
  dirty_bytes_ -= bytes;
  --flushes_in_flight_;
  // Admit writers FIFO while the budget allows; they re-check on resume.
  dirty_waiters_.wake_while([this](Bytes need) { return admits(need); });
  if (flushes_in_flight_ == 0) flush_waiters_.wake_all();
}

sim::Task<void> Disk::flush() {
  while (flushes_in_flight_ != 0) co_await flush_waiters_.wait(/*ready=*/false);
}

void Disk::cache_insert(std::uint64_t key, Bytes bytes) {
  auto it = cache_map_.find(key);
  if (it != cache_map_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.emplace_front(key, bytes);
  cache_map_[key] = cache_lru_.begin();
  cache_bytes_ += bytes;
  while (cache_bytes_ > cfg_.cache_capacity && !cache_lru_.empty()) {
    auto& [old_key, old_bytes] = cache_lru_.back();
    cache_bytes_ -= old_bytes;
    cache_map_.erase(old_key);
    cache_lru_.pop_back();
  }
}

}  // namespace vmstorm::storage
