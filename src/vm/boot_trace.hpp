// Synthetic VM boot I/O trace (§2.3 access-pattern model).
//
// A booting guest issues "random small reads and writes" against the image:
// clustered sequential runs (loading binaries, libraries, config) over a
// hot subset of the image, interleaved with CPU bursts, plus scattered
// small writes (logs, contextualization) toward the end of boot. Only a
// small fraction of the image is ever touched — the property both lazy
// schemes exploit.
//
// The trace is deterministic for a (params, seed) pair, and the SAME trace
// is replayed by every instance booting the same image (they run the same
// OS); per-instance variation enters through CPU-burst jitter and start
// skew in vm::run_boot.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/time.hpp"

namespace vmstorm::vm {

struct BootTraceParams {
  Bytes image_size = 2_GiB;
  /// Unique bytes read during boot (paper Fig. 4(d): ~110 MiB of a 2 GiB
  /// image actually travels per instance).
  Bytes read_volume = 105_MiB;
  /// Bytes written during boot/contextualization (the Fig. 5 "diff" is
  /// ~15 MB per instance).
  Bytes write_volume = 15_MiB;
  Bytes min_request = 4_KiB;
  Bytes max_request = 32_KiB;
  /// Sequential-run length bounds (a run = one file/binary being loaded).
  Bytes min_run = 64_KiB;
  Bytes max_run = 512_KiB;
  /// Total CPU time interleaved between I/O (sets the no-contention boot
  /// floor; prepropagation's flat Fig. 4(a) line sits near this + local
  /// disk time).
  double cpu_seconds = 8.0;
  /// Reads cluster in the first fraction of the image (OS + apps live at
  /// the front of the disk). Small => dense coverage of touched chunks, so
  /// whole-chunk prefetch over-fetches little (the paper measures ours at
  /// only ~8 % more traffic than request-granularity qcow2).
  double hot_fraction = 0.08;
  /// Concurrent append streams for the write workload (log/config files
  /// being written sequentially).
  std::size_t write_streams = 12;
};

struct BootOp {
  enum class Kind { kRead, kWrite, kCpu };
  Kind kind = Kind::kCpu;
  Bytes offset = 0;
  Bytes length = 0;
  sim::SimTime cpu = 0;
};

class BootTrace {
 public:
  static BootTrace generate(const BootTraceParams& params, std::uint64_t seed);

  const std::vector<BootOp>& ops() const { return ops_; }
  const BootTraceParams& params() const { return params_; }

  Bytes unique_read_bytes() const { return unique_read_; }
  Bytes total_written() const { return total_write_; }
  double total_cpu_seconds() const { return total_cpu_; }
  std::size_t request_count() const { return requests_; }

 private:
  BootTraceParams params_;
  std::vector<BootOp> ops_;
  Bytes unique_read_ = 0;
  Bytes total_write_ = 0;
  double total_cpu_ = 0;
  std::size_t requests_ = 0;
};

}  // namespace vmstorm::vm
