// Micro-benchmarks (google-benchmark) for the library's hot paths: the
// versioned segment tree, the mirroring translator, range sets, chunk
// payload materialization, the qcow format, imgfs, and the event engine.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

#include "blob/segment_tree.hpp"
#include "blob/store.hpp"
#include "common/interval.hpp"
#include "common/rng.hpp"
#include "imgfs/filesystem.hpp"
#include "mirror/local_state.hpp"
#include "qcow/image.hpp"
#include "sim/engine.hpp"

namespace vmstorm {
namespace {

void BM_SegmentTreeCommit(benchmark::State& state) {
  const std::uint64_t chunks = 8192;  // 2 GiB / 256 KiB
  const std::uint64_t k = static_cast<std::uint64_t>(state.range(0));
  blob::SegmentTreeArena arena;
  blob::NodeRef root = arena.build_empty(chunks);
  Rng rng(1);
  std::uint64_t key = 1;
  for (auto _ : state) {
    std::map<std::uint64_t, blob::ChunkLocation> updates;
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t ci = rng.uniform_u64(chunks);
      updates[ci] = blob::ChunkLocation{ci, 0, key++};
    }
    root = arena.commit(root, updates);
    benchmark::DoNotOptimize(root);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_SegmentTreeCommit)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

void BM_SegmentTreeLocate(benchmark::State& state) {
  blob::SegmentTreeArena arena;
  blob::NodeRef root = arena.build_empty(8192);
  std::vector<blob::ChunkLocation> out;
  for (auto _ : state) {
    out.clear();
    arena.locate(root, 1000, 1000 + state.range(0), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SegmentTreeLocate)->Arg(1)->Arg(32)->Arg(512);

void BM_SegmentTreeClone(benchmark::State& state) {
  blob::SegmentTreeArena arena;
  blob::NodeRef root = arena.build_empty(8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.clone(root));
  }
}
BENCHMARK(BM_SegmentTreeClone);

void BM_RangeSetInsert(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    RangeSet s;
    for (int i = 0; i < state.range(0); ++i) {
      const Bytes lo = rng.uniform_u64(1 << 20);
      s.insert({lo, lo + 1 + rng.uniform_u64(4096)});
    }
    benchmark::DoNotOptimize(s.fragment_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RangeSetInsert)->Arg(64)->Arg(1024);

void BM_MirrorPlanRead(benchmark::State& state) {
  mirror::MirrorConfig cfg;
  cfg.image_size = 2_GiB;
  cfg.chunk_size = 256_KiB;
  mirror::LocalState st(cfg);
  Rng rng(3);
  // Half-mirrored image.
  for (int i = 0; i < 4096; ++i) {
    const Bytes lo = rng.uniform_u64(2_GiB - 256_KiB);
    st.apply_fetch({lo, lo + 128_KiB});
  }
  for (auto _ : state) {
    const Bytes lo = rng.uniform_u64(2_GiB - 64_KiB);
    benchmark::DoNotOptimize(st.plan_read({lo, lo + 32_KiB}));
  }
}
BENCHMARK(BM_MirrorPlanRead);

// Args: bytes read, offset. Offset 3 puts a ragged head and tail around
// the whole words, the path a read at an unaligned byte takes.
void BM_ChunkPayloadPattern(benchmark::State& state) {
  const Bytes offset = static_cast<Bytes>(state.range(1));
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  auto payload = blob::ChunkPayload::pattern(42, offset + buf.size());
  for (auto _ : state) {
    payload.read(offset, buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChunkPayloadPattern)
    ->Args({4096, 0})
    ->Args({262144, 0})
    ->Args({262144, 3});

// FNV-1a over a synthetic chunk: what dedup pays per stored chunk.
void BM_ChunkPayloadContentHash(benchmark::State& state) {
  auto payload = blob::ChunkPayload::pattern(42, 256_KiB);
  for (auto _ : state) benchmark::DoNotOptimize(payload.content_hash());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_ChunkPayloadContentHash);

void BM_BlobStoreReadThrough(benchmark::State& state) {
  blob::BlobStore store(blob::StoreConfig{.providers = 8});
  blob::BlobId b = store.create(64_MiB, 256_KiB).value();
  store.write_pattern(b, 0, 0, 64_MiB, 1).check();
  std::vector<std::byte> buf(64_KiB);
  Rng rng(5);
  for (auto _ : state) {
    const Bytes off = rng.uniform_u64(64_MiB - buf.size());
    benchmark::DoNotOptimize(store.read(b, 1, off, buf));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_BlobStoreReadThrough);

void BM_QcowWrite(benchmark::State& state) {
  auto img = qcow::Image::create(std::make_unique<qcow::MemFile>(), 64_MiB,
                                 64_KiB).value();
  std::vector<std::byte> buf(8_KiB, std::byte{1});
  Rng rng(9);
  for (auto _ : state) {
    const Bytes off = rng.uniform_u64(64_MiB - buf.size()) & ~Bytes{4095};
    benchmark::DoNotOptimize(img->write(off, buf));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_QcowWrite);

void BM_ImgFsWrite8K(benchmark::State& state) {
  imgfs::MemDevice dev(256_MiB);
  auto fs = imgfs::FileSystem::format(dev).value();
  auto f = fs->create("bench").value();
  std::vector<std::byte> buf(8_KiB, std::byte{1});
  Bytes off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs->write(f, off, buf));
    off = (off + buf.size()) % (128_MiB);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ImgFsWrite8K);

// The delay mix of paper_baselines' enqueues (ROADMAP item 3): 21 % zero,
// 22 % 10-100 us, 42 % 100 us-1 ms, 13 % 1-10 ms, 3 % 10 ms-1 s. The
// rounded shares sum to 101.
sim::SimTime paper_delay(Rng& rng) {
  const auto ns = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<sim::SimTime>(rng.uniform_range(lo, hi));
  };
  const std::uint64_t pick = rng.uniform_u64(101);
  if (pick < 21) return 0;
  if (pick < 43) return ns(10'000, 100'000);
  if (pick < 85) return ns(100'000, 1'000'000);
  if (pick < 98) return ns(1'000'000, 10'000'000);
  return ns(10'000'000, 1'000'000'000);
}

sim::Task<void> hold_sleeper(sim::Engine& e, Rng* rng,
                             std::int64_t* sleeps_left) {
  while (*sleeps_left > 0) {
    --*sleeps_left;
    co_await e.sleep(paper_delay(*rng));
  }
}

// Hold model: range(0) sleepers keep that many wakeups pending while a
// shared budget of sleeps (8 per sleeper, at least 2^20) runs through the
// queue. ns/event = 1e9 / items_per_second.
void BM_SimEngineEvents(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  const std::int64_t sleeps = std::max<std::int64_t>(8 * depth, 1 << 20);
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Engine e;
    Rng rng(2011);
    std::int64_t sleeps_left = sleeps;
    for (std::int64_t i = 0; i < depth; ++i) {
      e.spawn(hold_sleeper(e, &rng, &sleeps_left));
    }
    e.run();
    benchmark::DoNotOptimize(e.events_processed());
    events += static_cast<std::int64_t>(e.events_processed());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SimEngineEvents)
    ->Arg(64)
    ->Arg(16384)
    ->Arg(131072)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vmstorm

BENCHMARK_MAIN();
