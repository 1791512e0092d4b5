// Micro-benchmarks (google-benchmark) for the library's hot paths: the
// versioned segment tree, the mirroring translator and its cold-read fill
// path, range sets, chunk payload materialization, the qcow format, imgfs,
// the event engine, and the trace pipeline (export, read-back,
// critical-path analysis).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "blob/segment_tree.hpp"
#include "blob/store.hpp"
#include "common/interval.hpp"
#include "common/rng.hpp"
#include "imgfs/filesystem.hpp"
#include "mirror/local_state.hpp"
#include "mirror/virtual_disk.hpp"
#include "obs/critpath.hpp"
#include "obs/trace.hpp"
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

// A cold mirror read: a fresh VirtualDisk over a pattern image of 256 KiB
// chunks, read in 64 KiB requests that start every `stride` chunks, so
// each chunk touched is fetched from the store into the local file once.
// Args: image MiB, stride in chunks. {64, 1} reads the image end to end;
// {512, 12} touches one chunk in 12 of a sparse file, about the share of
// the image real_mirror's boot trace fetches. Bytes/s counts fetched
// bytes. The file and its sidecar are removed between iterations,
// untimed. Timed in real time: the kernel does part of the work outside
// this thread.
void BM_VirtualDiskColdRead(benchmark::State& state) {
  const Bytes image = static_cast<Bytes>(state.range(0)) << 20;
  const Bytes stride = static_cast<Bytes>(state.range(1)) * 256_KiB;
  blob::BlobStore store(blob::StoreConfig{.providers = 8});
  const blob::BlobId b = store.create(image, 256_KiB).value();
  store.write_pattern(b, 0, 0, image, 1).check();
  mirror::VirtualDiskOptions opts;
  opts.local_path = (std::filesystem::temp_directory_path() /
                     ("vmstorm_micro_" + std::to_string(::getpid()) + ".img"))
                        .string();
  const auto remove_mirror = [&opts] {
    std::filesystem::remove(opts.local_path);
    std::filesystem::remove(opts.local_path + ".meta");
  };
  std::vector<std::byte> buf(64_KiB);
  Bytes fetched = 0;
  for (auto _ : state) {
    auto disk = mirror::VirtualDisk::open(store, b, 1, opts).value();
    for (Bytes off = 0; off < image; off += stride) {
      disk->pread(off, buf).check();
    }
    benchmark::DoNotOptimize(buf.data());
    fetched += disk->stats().remote_bytes_fetched;
    state.PauseTiming();
    disk.reset();
    remove_mirror();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(fetched));
}
BENCHMARK(BM_VirtualDiskColdRead)
    ->Args({64, 1})
    ->Args({512, 12})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

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

// ---- The trace pipeline over the traced fig4/fig5 run's event mix -------

enum class MixArgs { kNone, kBytes, kHolder, kTransfer, kRepo, kMetadata };

struct MixPair {
  const char* cat;
  const char* name;
  std::uint64_t per_mille;  ///< share of the run's events
  bool span;                ///< a span event (own id), else a cost event
  MixArgs args;
};

// The 13 (cat, name) pairs that make up all but 0.1 % of perfbench's
// paper_ours_traced trace (557,306 events), by share: 76 % under svc or
// wait, 24 % spans, 18 % without args. Its other six pairs, the roots and
// phase spans, are recorded once per VM or per phase.
constexpr MixPair kTraceMix[] = {
    {"svc", "net.tx", 160, false, MixArgs::kBytes},
    {"svc", "net.latency", 160, false, MixArgs::kNone},
    {"svc", "net.rx", 160, false, MixArgs::kBytes},
    {"net", "transfer", 160, true, MixArgs::kTransfer},
    {"svc", "disk", 97, false, MixArgs::kBytes},
    {"wait", "disk", 61, false, MixArgs::kHolder},
    {"wait", "net.tx", 46, false, MixArgs::kHolder},
    {"wait", "sim.join", 41, false, MixArgs::kHolder},
    {"blob", "fetch", 40, true, MixArgs::kRepo},
    {"net", "rpc", 35, true, MixArgs::kMetadata},
    {"svc", "net.conn", 22, false, MixArgs::kNone},
    {"wait", "net.rx", 12, false, MixArgs::kHolder},
    {"blob", "push", 6, true, MixArgs::kRepo},
};

/// Calls record(args) with the args of `shape`, drawing their values from
/// rng.
template <typename Record>
void with_mix_args(MixArgs shape, Rng& rng, obs::SpanId holder,
                   Record&& record) {
  using obs::TraceArg;
  const std::uint64_t bytes = std::uint64_t{256} << rng.uniform_u64(11);
  switch (shape) {
    case MixArgs::kNone: return record({});
    case MixArgs::kBytes: return record({TraceArg::uint("bytes", bytes)});
    case MixArgs::kHolder: return record({TraceArg::uint("holder", holder)});
    case MixArgs::kTransfer:
      return record({TraceArg::uint("dst", rng.uniform_u64(110)),
                     TraceArg::uint("bytes", bytes)});
    case MixArgs::kRepo:
      return record({TraceArg::str("bucket", "repo"),
                     TraceArg::uint("provider", rng.uniform_u64(110)),
                     TraceArg::uint("bytes", 262144)});
    case MixArgs::kMetadata:
      return record({TraceArg::str("bucket", "metadata")});
  }
}

/// Records `events` draws from kTraceMix on `lane` from *now on: spans nest
/// under earlier spans of root's tree, costs overlap (each starts halfway
/// through the previous one), and most disk costs are background work
/// (span 0), as in the real run.
void record_mix(obs::Tracer& t, Rng& rng, obs::SpanId root,
                std::uint32_t lane, int events, sim::SimTime* now) {
  std::vector<obs::SpanId> tree{root};
  for (int i = 0; i < events; ++i) {
    std::uint64_t pick = rng.uniform_u64(1000);
    const MixPair* p = kTraceMix;
    while (pick >= p->per_mille) pick -= (p++)->per_mille;
    const auto dur_ns =
        static_cast<sim::SimTime>(rng.uniform_range(10'000, 1'000'000));
    const double ts = sim::to_seconds(*now);
    const double dur = sim::to_seconds(dur_ns);
    const obs::SpanId owner = tree[rng.uniform_u64(tree.size())];
    const obs::SpanId holder = tree[rng.uniform_u64(tree.size())];
    with_mix_args(p->args, rng, holder, [&](obs::TraceArgs args) {
      if (p->span) {
        const obs::SpanId id = t.new_span(owner);
        t.complete_span(ts, dur, lane, p->cat, p->name, id, owner, args);
        tree.push_back(id);
      } else {
        const bool background =
            std::string_view(p->name) == "disk" && rng.bernoulli(0.93);
        t.complete_in(ts, dur, lane, p->cat, p->name, background ? 0 : owner,
                      args);
      }
    });
    *now += dur_ns / 2;
  }
}

/// About 100k events into `t`: 20 VMs (the run's 110, scaled like its
/// 557,306 events) each boot and snapshot under their own root span. A VM's
/// boot tree takes 90 % of its 5,000 events, its snapshot tree the rest,
/// roots, clone and commit included.
void record_paper_mix(obs::Tracer& t) {
  using obs::TraceArg;
  using sim::to_seconds;
  constexpr std::uint32_t kVms = 20;
  constexpr int kEventsPerVm = 5000;
  t.set_enabled(true);
  Rng rng(2011);
  sim::SimTime now = 0;
  const obs::SpanId deploy = t.new_span();
  for (std::uint32_t vm = 0; vm < kVms; ++vm) {
    const obs::SpanId boot = t.new_span(deploy);
    const sim::SimTime start = now;
    record_mix(t, rng, boot, vm, kEventsPerVm * 9 / 10 - 1, &now);
    t.complete_span(to_seconds(start), to_seconds(now - start), vm, "vm",
                    "boot", boot, deploy, {TraceArg::uint("instance", vm)});
  }
  t.complete_span(0, to_seconds(now), 0, "cloud", "multideploy", deploy, 0,
                  {TraceArg::uint("instances", kVms)});
  const obs::SpanId phase = t.new_span();
  const sim::SimTime phase_start = now;
  for (std::uint32_t vm = 0; vm < kVms; ++vm) {
    const obs::SpanId snap = t.new_span(phase);
    const obs::SpanId clone = t.new_span(snap);
    const obs::SpanId commit = t.new_span(snap);
    const sim::SimTime start = now;
    t.complete_span(to_seconds(now), 1e-3, 0, "blob", "clone", clone, snap,
                    {TraceArg::uint("src", 1)});
    record_mix(t, rng, commit, 0, kEventsPerVm / 10 - 3, &now);
    const double seconds = to_seconds(now - start);
    t.complete_span(to_seconds(start), seconds, 0, "blob", "commit", commit,
                    snap,
                    {TraceArg::uint("blob", vm + 2),
                     TraceArg::uint("version", 1),
                     TraceArg::uint("chunks", 28)});
    t.complete_span(to_seconds(start), seconds, 0, "cloud", "snapshot", snap,
                    phase, {TraceArg::uint("instance", vm)});
  }
  t.complete_span(to_seconds(phase_start), to_seconds(now - phase_start), 0,
                  "cloud", "multisnapshot", phase, 0,
                  {TraceArg::uint("instances", kVms)});
}

const obs::Tracer& paper_mix_trace() {
  static const obs::Tracer trace = [] {
    obs::Tracer t;
    record_paper_mix(t);
    return t;
  }();
  return trace;
}

// ns/event = 1e9 / items_per_second on each of the four stages. Recording
// runs on one thread, like the engine that records. The other three split
// their input over the hardware threads, so they time wall-clock ("Time")
// and the whole process's CPU ("CPU"): the default, the calling thread's
// CPU, would leave out the workers' share.
void BM_TraceRecord(benchmark::State& state) {
  std::size_t events = 0;
  for (auto _ : state) {
    obs::Tracer t;
    record_paper_mix(t);
    events = t.size();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceRecord)->Unit(benchmark::kMillisecond);

void BM_TraceJsonl(benchmark::State& state) {
  const obs::Tracer& t = paper_mix_trace();
  for (auto _ : state) {
    std::string text = t.jsonl();
    benchmark::DoNotOptimize(text);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_TraceJsonl)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Arg 0 reads in the automatic part count, arg 1 in one part, so a slower
// single-threaded reader shows even where the threads would hide it.
void BM_ParseTraceJsonl(benchmark::State& state) {
  const obs::Tracer& t = paper_mix_trace();
  const std::string text = t.jsonl();
  for (auto _ : state) {
    auto trace = state.range(0) == 0
                     ? obs::parse_trace_jsonl(text)
                     : obs::parse_trace_jsonl(
                           text, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_ParseTraceJsonl)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_AnalyzeCriticalPaths(benchmark::State& state) {
  const obs::Trace trace = paper_mix_trace().events();
  for (auto _ : state) {
    obs::CritReport report = obs::analyze_critical_paths(trace);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
}
BENCHMARK(BM_AnalyzeCriticalPaths)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace vmstorm

BENCHMARK_MAIN();
