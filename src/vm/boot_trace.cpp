#include "vm/boot_trace.hpp"

#include <algorithm>

#include "common/interval.hpp"
#include "common/rng.hpp"

namespace vmstorm::vm {

BootTrace BootTrace::generate(const BootTraceParams& p, std::uint64_t seed) {
  BootTrace t;
  t.params_ = p;
  Rng rng(seed);
  RangeSet touched;

  // The hot region must comfortably contain the read volume (the guest
  // never reads the same data twice from the image — its own page cache
  // absorbs re-reads, §2.3).
  const Bytes hot_bytes = std::min<Bytes>(
      p.image_size,
      std::max<Bytes>(
          static_cast<Bytes>(static_cast<double>(p.image_size) * p.hot_fraction),
          p.read_volume + 4 * p.max_run));

  // Estimate request count to budget CPU bursts between requests.
  const double est_requests =
      static_cast<double>(p.read_volume) /
          (0.5 * static_cast<double>(p.min_request + p.max_request)) +
      static_cast<double>(p.write_volume) / static_cast<double>(18_KiB);
  const double cpu_mean = p.cpu_seconds / std::max(est_requests, 1.0);

  auto emit_cpu = [&] {
    const double dt = rng.exponential(cpu_mean);
    t.ops_.push_back(BootOp{BootOp::Kind::kCpu, 0, 0, sim::from_seconds(dt)});
    t.total_cpu_ += dt;
  };
  auto emit_read = [&](Bytes off, Bytes len) {
    t.ops_.push_back(BootOp{BootOp::Kind::kRead, off, len, 0});
    touched.insert({off, off + len});
    ++t.requests_;
    emit_cpu();
  };
  auto emit_write = [&](Bytes off, Bytes len) {
    t.ops_.push_back(BootOp{BootOp::Kind::kWrite, off, len, 0});
    t.total_write_ += len;
    ++t.requests_;
    emit_cpu();
  };

  // The boot sector / kernel load: a sequential read at the start.
  emit_read(0, std::min<Bytes>(64_KiB, p.max_request));

  // Carve the hot region into run-sized segments (one per file/binary the
  // boot loads), visit them in random order, and read each as a sequential
  // burst of small requests. This covers exactly the read budget with no
  // image-level re-reads while keeping the request stream "random small
  // reads" from the repository's perspective.
  std::vector<ByteRange> segments;
  for (Bytes pos = 64_KiB; pos + p.min_run <= hot_bytes;) {
    Bytes run_len = p.min_run + rng.uniform_u64(p.max_run - p.min_run + 1);
    run_len &= ~(4_KiB - 1);
    const Bytes end = std::min<Bytes>(pos + run_len, hot_bytes);
    segments.push_back({pos, end});
    pos = end;
  }
  // Fisher-Yates shuffle.
  for (std::size_t i = segments.size(); i > 1; --i) {
    std::swap(segments[i - 1], segments[rng.uniform_u64(i)]);
  }
  for (const ByteRange& seg : segments) {
    if (touched.total_bytes() >= p.read_volume) break;
    Bytes pos = seg.lo;
    while (pos < seg.hi) {
      const Bytes len = std::min<Bytes>(
          seg.hi - pos,
          p.min_request + rng.uniform_u64(p.max_request - p.min_request + 1));
      emit_read(pos, len);
      pos += len;
    }
  }
  t.unique_read_ = touched.total_bytes();

  // Contextualization writes: log/config/tmp files appended sequentially —
  // a handful of append streams in a writable band of the image. Appends
  // keep per-chunk content contiguous (our strategy 2 rarely needs gap
  // fills) and touch few distinct qcow2 clusters.
  const Bytes write_band_lo = hot_bytes;
  const Bytes write_band = std::max<Bytes>(p.image_size / 8, 16_MiB);
  const std::size_t streams = std::max<std::size_t>(p.write_streams, 1);
  std::vector<Bytes> stream_pos(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    stream_pos[s] =
        (write_band_lo + rng.uniform_u64(write_band)) & ~(4_KiB - 1);
  }
  Bytes written = 0;
  while (written < p.write_volume) {
    const std::size_t s = rng.uniform_u64(streams);
    const Bytes len = std::min<Bytes>(4_KiB + rng.uniform_u64(28_KiB),
                                      p.write_volume - written);
    if (stream_pos[s] + len > p.image_size) {
      stream_pos[s] = write_band_lo;
    }
    emit_write(stream_pos[s], len);
    stream_pos[s] += len;
    written += len;
  }
  return t;
}

}  // namespace vmstorm::vm
