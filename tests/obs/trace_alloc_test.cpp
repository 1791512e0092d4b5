// Counts the heap allocations of trace recording. This file replaces the
// global operator new and delete of test_obs, every form but the aligned
// ones, with malloc and free (a sanitizer's own operator new must not meet
// this file's delete); it counts only while a test asks it to, from any
// thread, so the other tests of the binary run as before.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "common/interval.hpp"
#include "obs/trace.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
// Not inlined: GCC would then see free() on a pointer from operator new
// (-Wmismatched-new-delete), although this operator new is malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vmstorm::obs {
namespace {

/// Heap allocations made while fn runs.
template <typename Fn>
std::size_t allocations(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations.load() - before;
}

/// Event i of a stream like the simulator's: literal names, 0 to 3 args
/// (i % 4 of them) whose values change with every event.
void record_event(Tracer& t, std::uint64_t i) {
  const double ts = static_cast<double>(i) * 1e-3;
  switch (i % 4) {
    case 0: t.complete_in(ts, 1e-4, 0, "svc", "net.latency", i); break;
    case 1:
      t.complete_in(ts, 1e-4, 1, "svc", "disk", i,
                    {TraceArg::uint("bytes", i)});
      break;
    case 2:
      t.complete_span(ts, 1e-3, 2, "net", "transfer", i + 1, i,
                      {TraceArg::uint("dst", i % 110),
                       TraceArg::uint("bytes", i)});
      break;
    default:
      t.complete_span(ts, 1e-3, 3, "blob", "fetch", i + 1, i,
                      {TraceArg::str("bucket", "repo"),
                       TraceArg::uint("provider", i % 7),
                       TraceArg::uint("bytes", i)});
      break;
  }
}

TEST(TraceAlloc, RecordingAllocatesPerChunkNotPerEvent) {
  constexpr std::uint64_t kEvents = 10000;
  Tracer t;
  t.set_enabled(true);
  const std::size_t n = allocations([&t] {
    for (std::uint64_t i = 0; i < kEvents; ++i) record_event(t, i);
  });
  ASSERT_EQ(t.size(), kEvents);
  // Per chunk: the chunk table, one entry longer; the chunk's events; and
  // its args arena, sized at one arg an event and doubled once to hold the
  // 1.5 that these events average. The names are fewer than the empty
  // table's first sizes hold.
  const std::size_t chunks = block_count(kEvents, Tracer::kRingChunk);
  EXPECT_LE(n, chunks * 4) << n << " allocations for " << chunks
                           << " chunks";
}

TEST(TraceAlloc, WrappedRingRecordsWithoutAllocating) {
  // Once two passes have sized both args arenas of every chunk, a pass
  // with the same shape of args reuses them.
  constexpr std::uint64_t kCap = 2 * Tracer::kRingChunk + 4;
  Tracer t;
  t.set_enabled(true);
  t.set_ring_capacity(kCap);
  std::uint64_t i = 0;
  for (; i < 2 * kCap; ++i) record_event(t, i);
  const std::size_t n = allocations([&] {
    for (const std::uint64_t end = i + kCap; i < end; ++i) record_event(t, i);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(t.dropped_ring(), 2 * kCap);
}

}  // namespace
}  // namespace vmstorm::obs
