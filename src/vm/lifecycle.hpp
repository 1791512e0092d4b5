// Boot-phase player: replays a BootTrace against a storage::VmDisk with
// per-instance start skew and CPU jitter (§3.1.3: instances booting
// together skew by ~100 ms and drift apart as boot progresses).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "storage/vm_disk.hpp"
#include "vm/boot_trace.hpp"

namespace vmstorm::vm {

struct BootParams {
  /// Mean of the exponential start skew (hypervisor launch jitter).
  double start_skew_seconds = 0.1;
  /// Per-instance multiplicative CPU jitter half-width: each CPU burst is
  /// scaled by U(1-j, 1+j).
  double cpu_jitter = 0.2;
  /// Trace identity for the root span this boot emits (cat "vm"): lane is
  /// the hosting node, instance the logical VM index, kind "boot" or
  /// "resume". The span covers [started, finished] — skew excluded.
  std::uint32_t trace_lane = 0;
  std::uint64_t trace_instance = 0;
  const char* trace_kind = "boot";
};

struct BootResult {
  double started = 0;   // when the hypervisor launched (after skew)
  double finished = 0;  // /etc/rc.local reached
  double boot_seconds() const { return finished - started; }
};

/// Replays the boot trace. `rng` must be a per-instance fork so runs are
/// deterministic yet instances differ.
sim::Task<void> run_boot(sim::Engine& engine, storage::VmDisk& disk,
                         const BootTrace& trace, Rng rng, BootParams params,
                         BootResult* result);

}  // namespace vmstorm::vm
