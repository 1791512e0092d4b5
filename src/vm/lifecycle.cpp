#include "vm/lifecycle.hpp"

#include "sim/causal.hpp"

namespace vmstorm::vm {

sim::Task<void> run_boot(sim::Engine& engine, storage::VmDisk& disk,
                         const BootTrace& trace, Rng rng, BootParams params,
                         BootResult* result) {
  co_await engine.sleep_seconds(rng.exponential(params.start_skew_seconds));
  result->started = engine.now_seconds();
  // Root span for this instance: the critical-path analyzer attributes
  // everything inside [started, finished] against it.
  sim::SpanScope span(engine);
  for (const BootOp& op : trace.ops()) {
    switch (op.kind) {
      case BootOp::Kind::kRead:
        co_await disk.read(op.offset, op.length);
        break;
      case BootOp::Kind::kWrite:
        co_await disk.write(op.offset, op.length);
        break;
      case BootOp::Kind::kCpu: {
        const double jitter =
            1.0 - params.cpu_jitter + 2.0 * params.cpu_jitter * rng.uniform_double();
        co_await engine.sleep(
            static_cast<sim::SimTime>(static_cast<double>(op.cpu) * jitter));
        break;
      }
    }
  }
  result->finished = engine.now_seconds();
  if (span) {
    span.finish(params.trace_lane, "vm", params.trace_kind,
                {obs::TraceArg::uint("instance", params.trace_instance)});
  }
}

}  // namespace vmstorm::vm
