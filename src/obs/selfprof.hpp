// Host-side self-profiling for the engine: wall-clock phase timers and
// process RSS sampling.
//
// The simulator is deterministic in *simulated* time; SelfProfiler measures
// what the simulation costs in *host* time. Engine::run tiles its wall time
// into phases — event-heap operations, auditor hooks, coroutine resumption,
// tracer recording — so `bench_scale` can answer "where do the engine's
// cycles go at 10k nodes" and price the observability layer itself
// (tracing-off vs sampled vs full ablation).
//
// Determinism contract: nothing here feeds back into the simulation or the
// seed-deterministic metric/trace exports. Host numbers flow only into
// Registry::host_gauge() and the non-fingerprinted "overhead" section of
// BENCH_engine.json, so same-seed byte-identity of the deterministic
// artifacts holds with a profiler attached. wall_now() is the one
// vmlint-sanctioned wall-clock read in src/ (vmlint:allow(determinism) in
// selfprof.cpp); everything host-timed funnels through it.
#pragma once

#include <cstdint>

namespace vmstorm::obs {

class JsonWriter;

class SelfProfiler {
 public:
  /// Phases tiling Engine::run wall time. kTracer is charged inside
  /// kResume (components record from resumed coroutines); the derived
  /// buckets below account for that.
  enum Phase : int {
    kQueueOps = 0,  ///< event-heap top/pop + schedule bookkeeping
    kAuditor,       ///< Auditor::on_event hooks
    kResume,        ///< coroutine resumption (includes user work + tracer)
    kTracer,        ///< Tracer::push, nested inside kResume
    kPhaseCount
  };

  /// Monotonic host seconds. The single sanctioned wall-clock read.
  static double wall_now();

  void charge(Phase phase, double seconds) { seconds_[phase] += seconds; }
  /// Credits one outermost Engine::run invocation's total wall time.
  void charge_run(double seconds) { run_seconds_ += seconds; }

  double seconds(Phase phase) const { return seconds_[phase]; }
  double run_seconds() const { return run_seconds_; }

  /// Dispatch overhead: run time not in any measured phase (loop control,
  /// guard checks, span bookkeeping). Clamped at 0 against timer noise.
  double dispatch_seconds() const;
  /// Simulated components' own work: resume time minus tracer time.
  double user_seconds() const;

  /// {"queue_ops":..,"auditor":..,"resume":..,"tracer":..,"dispatch":..,
  ///  "user_work":..}: the "phases" object of a BENCH_engine arm.
  void write_json(JsonWriter& w) const;

 private:
  double seconds_[kPhaseCount] = {};
  double run_seconds_ = 0;
};

/// Peak resident set (VmHWM) of this process in bytes, from
/// /proc/self/status. 0 when unavailable (non-Linux).
std::uint64_t peak_rss_bytes();

}  // namespace vmstorm::obs
