#include "vm/lifecycle.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace vmstorm::vm {
namespace {

using sim::Engine;

BootTraceParams tiny_trace_params() {
  BootTraceParams p;
  p.image_size = 16_MiB;
  p.read_volume = 1_MiB;
  p.write_volume = 128_KiB;
  p.cpu_seconds = 2.0;
  return p;
}

storage::DiskConfig disk_cfg() {
  storage::DiskConfig cfg;
  cfg.rate = mb_per_s(55.0);
  cfg.seek_overhead = sim::from_millis(1);
  return cfg;
}

TEST(Lifecycle, BootAdvancesThroughTrace) {
  Engine e;
  storage::Disk disk(e, disk_cfg());
  storage::LocalVmDisk vmdisk(disk, 1);
  auto trace = BootTrace::generate(tiny_trace_params(), 1);
  BootResult result;
  BootParams bp;
  e.spawn(run_boot(e, vmdisk, trace, Rng(5), bp, &result));
  e.run();
  EXPECT_GT(result.started, 0.0);  // skew happened
  // Boot >= CPU floor, < CPU + generous I/O budget.
  EXPECT_GT(result.boot_seconds(), 1.2);
  EXPECT_LT(result.boot_seconds(), 10.0);
}

TEST(Lifecycle, DeterministicForSameRng) {
  auto run_once = [] {
    Engine e;
    storage::Disk disk(e, disk_cfg());
    storage::LocalVmDisk vmdisk(disk, 1);
    auto trace = BootTrace::generate(tiny_trace_params(), 1);
    BootResult result;
    e.spawn(run_boot(e, vmdisk, trace, Rng(5), BootParams{}, &result));
    e.run();
    return result.finished;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Lifecycle, DifferentInstancesSkew) {
  Engine e;
  storage::Disk d1(e, disk_cfg()), d2(e, disk_cfg());
  storage::LocalVmDisk v1(d1, 1), v2(d2, 2);
  auto trace = BootTrace::generate(tiny_trace_params(), 1);
  BootResult r1, r2;
  Rng root(9);
  e.spawn(run_boot(e, v1, trace, root.fork(0), BootParams{}, &r1));
  e.spawn(run_boot(e, v2, trace, root.fork(1), BootParams{}, &r2));
  e.run();
  EXPECT_NE(r1.started, r2.started);
  EXPECT_NE(r1.finished, r2.finished);
}

TEST(Lifecycle, ZeroJitterMakesInstancesDifferOnlyBySkew) {
  Engine e;
  storage::Disk d1(e, disk_cfg()), d2(e, disk_cfg());
  storage::LocalVmDisk v1(d1, 1), v2(d2, 2);
  auto trace = BootTrace::generate(tiny_trace_params(), 1);
  BootParams bp;
  bp.cpu_jitter = 0.0;
  BootResult r1, r2;
  Rng root(9);
  e.spawn(run_boot(e, v1, trace, root.fork(0), bp, &r1));
  e.spawn(run_boot(e, v2, trace, root.fork(1), bp, &r2));
  e.run();
  EXPECT_NEAR(r1.boot_seconds(), r2.boot_seconds(), 0.2);
}

TEST(LocalVmDisk, CachesBlocksAcrossReads) {
  Engine e;
  storage::Disk disk(e, disk_cfg());
  storage::LocalVmDisk vmdisk(disk, 1);
  double first = 0, second = 0;
  e.spawn([](Engine& eng, storage::LocalVmDisk& d, double* a, double* b) -> sim::Task<void> {
    co_await d.read(0, 64_KiB);
    *a = eng.now_seconds();
    co_await d.read(4_KiB, 32_KiB);  // same 256 KiB block: cached
    *b = eng.now_seconds();
  }(e, vmdisk, &first, &second));
  e.run();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(second, first);
}

TEST(LocalVmDisk, DistinctInstancesDoNotShareCache) {
  Engine e;
  storage::Disk disk(e, disk_cfg());
  storage::LocalVmDisk a(disk, 1), b(disk, 2);
  double ta = 0, tb = 0;
  e.spawn([](Engine& eng, storage::LocalVmDisk& d, double* out) -> sim::Task<void> {
    co_await d.read(0, 64_KiB);
    *out = eng.now_seconds();
  }(e, a, &ta));
  e.run();
  e.spawn([](Engine& eng, storage::LocalVmDisk& d, double* out) -> sim::Task<void> {
    const double t0 = eng.now_seconds();
    co_await d.read(0, 64_KiB);
    *out = eng.now_seconds() - t0;
  }(e, b, &tb));
  e.run();
  EXPECT_GT(tb, 0.0);  // instance b pays platter again (its own image copy)
}

}  // namespace
}  // namespace vmstorm::vm
