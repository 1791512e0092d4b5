// Local disk model.
//
// Mirrors the paper's testbed disks (§5.1): ~55 MB/s sequential access, with
// the host kernel's page cache in front. Two behaviours matter for the
// reproduced experiments:
//
//  * read caching — when 110 VMs boot from the same striped image, each
//    provider reads a given chunk from platter once and serves subsequent
//    requests from RAM (the contended resource becomes the NIC, as in the
//    paper);
//  * asynchronous (write-back) writes — BlobSeer ACKs a write once it is in
//    memory; flushing proceeds in the background, and sustained pressure
//    eventually fills the dirty budget and throttles writers. This is
//    exactly the Figure 5(a) effect ("initially much better ... gradually
//    degrades as more concurrent instances generate more write pressure").
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace vmstorm::obs {
class Counter;
class ExpHistogram;
}  // namespace vmstorm::obs

namespace vmstorm::storage {

struct DiskConfig {
  /// Paper: local disk storage access speed ~55 MB/s.
  BytesPerSecond rate = mb_per_s(55.0);
  /// Positioning overhead charged per request (seek + rotational average,
  /// commodity SATA).
  sim::SimTime seek_overhead = sim::from_millis(4.0);
  /// Page-cache budget for cached reads.
  Bytes cache_capacity = 4_GiB;
  /// Dirty-page budget; write-back writes block once this is exceeded.
  Bytes dirty_limit = 512_MiB;
};

class Disk {
 public:
  Disk(sim::Engine& engine, DiskConfig cfg = DiskConfig{});

  /// Reads `bytes` identified by `key` (e.g. hash of blob/chunk). A cache
  /// hit costs nothing; a miss pays seek + transfer and populates the cache.
  sim::Task<void> read(std::uint64_t key, Bytes bytes);

  /// Uncached read (e.g. streaming a huge file once).
  sim::Task<void> read_uncached(Bytes bytes);

  /// Synchronous (write-through) write: completes when on platter.
  sim::Task<void> write_sync(Bytes bytes);

  /// Asynchronous (write-back) write: completes when accepted into the
  /// dirty buffer — immediately while under the dirty limit, otherwise when
  /// enough flushing has happened. A background flush then occupies the
  /// platter. `cache_key`, if nonzero, also populates the read cache
  /// (freshly written data is in RAM).
  sim::Task<void> write_async(Bytes bytes, std::uint64_t cache_key = 0);

  /// Waits until all pending write-back data is on platter.
  sim::Task<void> flush();

  /// Trace lane for this disk's platter events (node index). The platter
  /// traces as "disk" on lane 0 until relabeled.
  void set_trace_lane(std::uint32_t lane) { platter_.set_trace("disk", lane); }

  bool cached(std::uint64_t key) const { return cache_map_.count(key) > 0; }
  Bytes dirty_bytes() const { return dirty_bytes_; }
  /// Platter requests queued or in service now / at the busiest instant.
  std::uint64_t queue_depth() const { return platter_.inflight(); }
  std::uint64_t queue_depth_high_water() const {
    return platter_.inflight_high_water();
  }
  Bytes bytes_read_platter() const { return platter_.bytes_served(); }
  sim::SimTime busy_time() const { return platter_.busy_time(); }
  sim::SimTime queue_wait_time() const { return platter_.total_queue_wait(); }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }

 private:
  void record_queue_wait();
  void cache_insert(std::uint64_t key, Bytes bytes);
  sim::Task<void> flusher(Bytes bytes);
  /// True when a write-back of `bytes` fits the dirty budget now (a write
  /// larger than the whole budget is admitted alone once the buffer drains).
  bool admits(Bytes bytes) const {
    return dirty_bytes_ == 0 || dirty_bytes_ + bytes <= cfg_.dirty_limit;
  }

  sim::Engine* engine_;
  DiskConfig cfg_;
  sim::FifoServer platter_;

  // LRU read cache: list front = most recent.
  std::list<std::pair<std::uint64_t, Bytes>> cache_lru_;
  std::unordered_map<std::uint64_t,
                     std::list<std::pair<std::uint64_t, Bytes>>::iterator>
      cache_map_;
  Bytes cache_bytes_ = 0;

  Bytes dirty_bytes_ = 0;
  sim::WaitQueue dirty_waiters_;  ///< writers awaiting admission, FIFO
  std::uint64_t flushes_in_flight_ = 0;
  sim::WaitQueue flush_waiters_;

  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  // Registry handles, cached at construction; null without a recorder.
  obs::Counter* obs_cache_hits_ = nullptr;
  obs::Counter* obs_cache_misses_ = nullptr;
  obs::ExpHistogram* obs_queue_wait_ = nullptr;
};

}  // namespace vmstorm::storage
