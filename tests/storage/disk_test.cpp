#include "storage/disk.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/sync.hpp"

namespace vmstorm::storage {
namespace {

using sim::Engine;
using sim::Task;
using sim::from_seconds;

DiskConfig simple_config() {
  DiskConfig cfg;
  cfg.rate = 100.0;  // 100 B/s
  cfg.seek_overhead = 0;
  cfg.cache_capacity = 1000;
  cfg.dirty_limit = 500;
  return cfg;
}

Task<void> do_read(Engine& e, Disk& d, std::uint64_t key, Bytes n, double* t) {
  co_await d.read(key, n);
  *t = e.now_seconds();
}

TEST(Disk, FirstReadHitsPlatter) {
  Engine e;
  Disk d(e, simple_config());
  double t = 0;
  e.spawn(do_read(e, d, 1, 100, &t));
  e.run();
  EXPECT_DOUBLE_EQ(t, 1.0);
  EXPECT_EQ(d.bytes_read_platter(), 100u);
}

TEST(Disk, SecondReadServedFromCache) {
  Engine e;
  Disk d(e, simple_config());
  double t1 = 0, t2 = 0;
  e.spawn([](Engine& eng, Disk& disk, double* a, double* b) -> Task<void> {
    co_await disk.read(1, 100);
    *a = eng.now_seconds();
    co_await disk.read(1, 100);
    *b = eng.now_seconds();
  }(e, d, &t1, &t2));
  e.run();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 1.0);  // cache hit: free
  EXPECT_EQ(d.bytes_read_platter(), 100u);
}

TEST(Disk, CacheEvictsLru) {
  Engine e;
  DiskConfig cfg = simple_config();
  cfg.cache_capacity = 250;
  Disk d(e, cfg);
  e.spawn([](Disk& disk) -> Task<void> {
    co_await disk.read(1, 100);
    co_await disk.read(2, 100);
    co_await disk.read(1, 0);  // touch 1 -> 2 becomes LRU
    co_await disk.read(3, 100);  // evicts 2
    EXPECT_TRUE(disk.cached(1));
    EXPECT_FALSE(disk.cached(2));
    EXPECT_TRUE(disk.cached(3));
  }(d));
  e.run();
}

TEST(Disk, SeekOverheadCharged) {
  Engine e;
  DiskConfig cfg = simple_config();
  cfg.seek_overhead = from_seconds(0.5);
  Disk d(e, cfg);
  double t = 0;
  e.spawn(do_read(e, d, 1, 100, &t));
  e.run();
  EXPECT_DOUBLE_EQ(t, 1.5);
}

TEST(Disk, UncachedReadAlwaysHitsPlatter) {
  Engine e;
  Disk d(e, simple_config());
  e.spawn([](Engine& eng, Disk& disk) -> Task<void> {
    co_await disk.read_uncached(100);
    co_await disk.read_uncached(100);
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 2.0);
  }(e, d));
  e.run();
}

TEST(Disk, SyncWriteBlocksForPlatter) {
  Engine e;
  Disk d(e, simple_config());
  e.spawn([](Engine& eng, Disk& disk) -> Task<void> {
    co_await disk.write_sync(200);
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 2.0);
  }(e, d));
  e.run();
}

TEST(Disk, AsyncWriteReturnsImmediatelyUnderLimit) {
  Engine e;
  Disk d(e, simple_config());
  e.spawn([](Engine& eng, Disk& disk) -> Task<void> {
    co_await disk.write_async(400);
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 0.0);  // under 500 B dirty limit
    EXPECT_EQ(disk.dirty_bytes(), 400u);
    co_await disk.flush();
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 4.0);
    EXPECT_EQ(disk.dirty_bytes(), 0u);
  }(e, d));
  e.run();
}

TEST(Disk, AsyncWriteThrottledOverDirtyLimit) {
  Engine e;
  Disk d(e, simple_config());
  e.spawn([](Engine& eng, Disk& disk) -> Task<void> {
    co_await disk.write_async(400);  // fills most of the 500 B budget
    co_await disk.write_async(400);  // must wait for first flush (4 s)
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 4.0);
    co_await disk.flush();
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 8.0);
  }(e, d));
  e.run();
}

Task<void> timed_write(Engine& e, Disk& d, Bytes n, double* admitted_at) {
  co_await d.write_async(n);
  *admitted_at = e.now_seconds();
}

TEST(Disk, ThrottledWritersAdmittedInArrivalOrder) {
  Engine e;
  Disk d(e, simple_config());
  double large_at = -1, small_at = -1;
  e.spawn([](Disk& disk) -> Task<void> {
    // Fill the 500 B budget; the flushes land at 2.5 s and 5.0 s.
    co_await disk.write_async(250);
    co_await disk.write_async(250);
  }(d));
  e.spawn(timed_write(e, d, 300, &large_at));
  e.spawn(timed_write(e, d, 100, &small_at));
  e.run();
  EXPECT_DOUBLE_EQ(large_at, 5.0);
  // The 100 B writer fits at 2.5 s, but not ahead of the 300 B one.
  EXPECT_DOUBLE_EQ(small_at, 5.0);
}

TEST(Disk, HugeAsyncWriteAdmittedWhenBufferEmpty) {
  Engine e;
  Disk d(e, simple_config());
  e.spawn([](Engine& eng, Disk& disk) -> Task<void> {
    co_await disk.write_async(2000);  // larger than dirty limit
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 0.0);
    co_await disk.flush();
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 20.0);
  }(e, d));
  e.run();
}

TEST(Disk, AsyncWritePopulatesReadCache) {
  Engine e;
  Disk d(e, simple_config());
  e.spawn([](Engine& eng, Disk& disk) -> Task<void> {
    co_await disk.write_async(100, /*cache_key=*/7);
    co_await disk.flush();
    double before = eng.now_seconds();
    co_await disk.read(7, 100);  // hit
    EXPECT_DOUBLE_EQ(eng.now_seconds(), before);
  }(e, d));
  e.run();
}

TEST(Disk, ReadersQueueBehindEachOther) {
  Engine e;
  Disk d(e, simple_config());
  double t1 = 0, t2 = 0;
  e.spawn(do_read(e, d, 1, 100, &t1));
  e.spawn(do_read(e, d, 2, 100, &t2));
  e.run();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 2.0);
}

TEST(Disk, FlushOnCleanDiskIsImmediate) {
  Engine e;
  Disk d(e, simple_config());
  e.spawn([](Engine& eng, Disk& disk) -> Task<void> {
    co_await disk.flush();
    EXPECT_DOUBLE_EQ(eng.now_seconds(), 0.0);
  }(e, d));
  e.run();
}

}  // namespace
}  // namespace vmstorm::storage
