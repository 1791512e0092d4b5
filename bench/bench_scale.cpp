// Engine scale bench — where do the engine's cycles go at 10k nodes, and
// what does observability itself cost?
//
// Runs the same deploy+snapshot workload (small per-instance image, §5.1
// testbed rates) three times in one process, varying only the tracing arm:
//   off      tracing disabled (engine floor)
//   sampled  tracing on, 1/64 of root span trees kept (seed-derived)
//   full     tracing on, everything recorded (ring-bounded)
// and reports host wall time tiled into engine phases (SelfProfiler),
// events/sec, and peak RSS per arm. The deterministic engine counters must
// be identical across arms — tracing cannot change event order — and the
// bench fails hard if they differ.
//
// A fourth run repeats the workload with timeline sampling enabled. Its
// sampler is a real engine task, so its counters legitimately differ from
// the three comparison arms; it contributes only the "timeline" section
// (rendered by `vmstormctl timeline BENCH_engine.json`).
//
// Artifact: BENCH_engine.json, schema "vmstorm-engine-v1" (validated by
// tools/check_bench_schema.py, rendered by `vmstormctl engine-stats`;
// regression-gated by tools/check_bench_regress.py against
// bench/baselines/). Host times live in the non-fingerprinted "overhead"
// section; the "sim" section is a pure function of the seed.
//
// Full mode: 10240 instances. VMSTORM_QUICK=1: 256 (CI budget ~60 s).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cloud/scale_workload.hpp"
#include "obs/selfprof.hpp"
#include "obs/timeline.hpp"
#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {
namespace {

struct ArmResult {
  std::string name;
  double wall = 0;
  double events_per_sec = 0;
  std::uint64_t peak_rss = 0;
  obs::SelfProfiler prof;
  // Deterministic engine counters (must match across arms).
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t queue_depth_hw = 0;
  std::uint64_t wait_records_created = 0;
  std::uint64_t wait_records_live_hw = 0;
  std::uint64_t cancelled_wakeups = 0;
  // Trace volume accounting (differs by arm: that's the ablation).
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped_ring = 0;
  std::uint64_t trace_dropped_sampling = 0;
};

/// sample_rate < 0: tracing off. 1.0: full. (0,1): sampled.
Result<ArmResult> run_arm(const std::string& name,
                          const cloud::CloudConfig& cfg,
                          const vm::BootTraceParams& tp, double sample_rate) {
  ArmResult r;
  r.name = name;
  cloud::Cloud c(cfg, cloud::Strategy::kOurs);
  c.obs().trace.set_enabled(sample_rate >= 0);  // override VMSTORM_TRACE
  // Comparison arms never sample a timeline (override VMSTORM_TIMELINE):
  // the sampler is an engine task, and these counters must stay comparable
  // with the committed baselines in bench/baselines/.
  c.obs().timeline.set_enabled(false);
  if (sample_rate >= 0 && sample_rate < 1.0) {
    c.obs().trace.set_sampling(sample_rate, cfg.seed);
  }
  c.engine().set_profiler(&r.prof);
  c.obs().trace.set_profiler(&r.prof);
  c.multideploy(cfg.compute_nodes, tp);
  VMSTORM_RETURN_IF_ERROR(c.multisnapshot().status());
  c.engine().set_profiler(nullptr);
  c.obs().trace.set_profiler(nullptr);

  sim::Engine& e = c.engine();
  r.wall = r.prof.run_seconds();
  r.events_processed = e.events_processed();
  r.events_per_sec =
      r.wall > 0 ? static_cast<double>(r.events_processed) / r.wall : 0;
  r.events_scheduled = e.events_scheduled();
  r.queue_depth_hw = e.queue_depth_high_water();
  r.wait_records_created = e.wait_records_created();
  r.wait_records_live_hw = e.wait_records_live_high_water();
  r.cancelled_wakeups = e.cancelled_wakeups();
  const obs::Tracer& tr = c.obs().trace;
  r.trace_recorded = tr.recorded_total();
  r.trace_dropped_ring = tr.dropped_ring();
  r.trace_dropped_sampling = tr.dropped_sampling();
  // VmHWM is a process-wide peak: arms run off -> sampled -> full so a
  // later arm's number includes everything before it. Comparisons between
  // arms are therefore one-sided (full >= sampled >= off by construction).
  r.peak_rss = obs::peak_rss_bytes();
  return r;
}

int run() {
  const bool quick = bench::quick_mode();
  const std::size_t n =
      quick ? cloud::kScaleQuickNodes : cloud::kScaleFullNodes;
  const cloud::CloudConfig cfg = cloud::scale_config(n);
  const vm::BootTraceParams tp = cloud::scale_trace();

  bench::print_header("Engine scale",
                      "events/sec and observability overhead at " +
                          std::to_string(n) + " instances");

  std::vector<ArmResult> arms;
  const std::pair<const char*, double> plan[] = {
      {"off", -1.0}, {"sampled", 1.0 / 64.0}, {"full", 1.0}};
  for (const auto& [name, rate] : plan) {
    auto r = run_arm(name, cfg, tp, rate);
    if (!r.is_ok()) {
      std::fprintf(stderr, "arm %s failed: %s\n", name,
                   r.status().to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "  [engine] arm=%-8s wall=%.2fs events/s=%.0f\n",
                 name, r->wall, r->events_per_sec);
    arms.push_back(std::move(*r));
  }

  // Tracing must be invisible to the simulation: identical deterministic
  // counters across arms, or the telemetry layer has a heisenbug.
  for (const ArmResult& a : arms) {
    if (a.events_processed != arms[0].events_processed ||
        a.events_scheduled != arms[0].events_scheduled ||
        a.queue_depth_hw != arms[0].queue_depth_hw ||
        a.wait_records_created != arms[0].wait_records_created ||
        a.cancelled_wakeups != arms[0].cancelled_wakeups) {
      std::fprintf(stderr,
                   "FAIL: deterministic engine counters differ between arms "
                   "'%s' and '%s' — tracing perturbed the simulation\n",
                   arms[0].name.c_str(), a.name.c_str());
      return 1;
    }
  }
  const ArmResult& off = arms[0];
  const ArmResult& sampled = arms[1];
  const ArmResult& full = arms[2];
  if (sampled.prof.seconds(obs::SelfProfiler::kTracer) >=
      full.prof.seconds(obs::SelfProfiler::kTracer)) {
    // Host-noise-sensitive, so a warning (the schema checker enforces the
    // ordering on full-mode artifacts, where the runs are long enough).
    std::fprintf(stderr,
                 "WARN: sampled tracer time >= full tracer time "
                 "(%.4fs vs %.4fs) — host timing noise?\n",
                 sampled.prof.seconds(obs::SelfProfiler::kTracer),
                 full.prof.seconds(obs::SelfProfiler::kTracer));
  }

  std::printf("\nEngine throughput and observability cost (%zu instances)\n",
              n);
  Table t({"arm", "wall s", "events/s", "tracer s", "dispatch s",
           "queue ops s", "peak rss", "recorded", "dropped"});
  for (const ArmResult& a : arms) {
    t.add_row({a.name, Table::num(a.wall, 3), Table::num(a.events_per_sec, 0),
               Table::num(a.prof.seconds(obs::SelfProfiler::kTracer), 3),
               Table::num(a.prof.dispatch_seconds(), 3),
               Table::num(a.prof.seconds(obs::SelfProfiler::kQueueOps), 3),
               format_bytes(static_cast<double>(a.peak_rss)),
               std::to_string(a.trace_recorded),
               std::to_string(a.trace_dropped_ring +
                              a.trace_dropped_sampling)});
  }
  t.print();
  std::printf("\nengine counters: %llu events processed, "
              "queue high-water %llu, %llu wait records\n",
              static_cast<unsigned long long>(off.events_processed),
              static_cast<unsigned long long>(off.queue_depth_hw),
              static_cast<unsigned long long>(off.wait_records_created));

  // ---- Fourth run: timeline sampling ------------------------------------
  // The sampler is an ordinary span-0 engine task, so this run's counters
  // are not comparable with the arms above; it exists only to produce the
  // artifact's "timeline" section.
  std::string timeline_json;
  {
    cloud::Cloud c(cfg, cloud::Strategy::kOurs);
    c.obs().trace.set_enabled(false);
    if (!c.timeline_enabled()) c.enable_timeline();
    c.multideploy(cfg.compute_nodes, tp);
    auto m = c.multisnapshot();
    if (!m.is_ok()) {
      std::fprintf(stderr, "timeline run failed: %s\n",
                   m.status().to_string().c_str());
      return 1;
    }
    timeline_json = c.timeline_json();
  }

  // ---- BENCH_engine.json (schema vmstorm-engine-v1) ----------------------
  std::vector<std::pair<std::string, std::string>> fp_entries = {
      {"instances", std::to_string(n)},
      {"image_size", std::to_string(cfg.image_size)},
      {"chunk_size", std::to_string(cfg.chunk_size)},
      {"read_volume", std::to_string(tp.read_volume)},
      {"write_volume", std::to_string(tp.write_volume)},
      {"seed", std::to_string(cfg.seed)},
  };
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("vmstorm-engine-v1");
  w.key("name").value("engine");
  w.key("title").value("engine self-telemetry at scale (deploy + snapshot)");
  w.key("quick").value(quick);
  w.key("config").begin_object();
  for (const auto& [k, v] : fp_entries) w.key(k).raw(v);
  w.key("fingerprint").value(bench::config_fingerprint(fp_entries));
  w.end_object();
  // Deterministic section: same seed => same bytes (trace counters are
  // taken from the full arm, whose ring/sampling decisions are seeded).
  w.key("sim").begin_object();
  w.key("events_processed").value(off.events_processed);
  w.key("events_scheduled").value(off.events_scheduled);
  w.key("queue_depth_high_water").value(off.queue_depth_hw);
  w.key("wait_records_created").value(off.wait_records_created);
  w.key("wait_records_live_high_water").value(off.wait_records_live_hw);
  w.key("cancelled_wakeups").value(off.cancelled_wakeups);
  w.key("trace").begin_object();
  w.key("recorded").value(full.trace_recorded);
  w.key("dropped_ring").value(full.trace_dropped_ring);
  w.key("dropped_sampling").value(full.trace_dropped_sampling);
  w.end_object();
  w.end_object();
  // Host section: wall clock and RSS, different every run by nature.
  w.key("overhead").begin_object();
  w.key("arms").begin_array();
  for (const ArmResult& a : arms) {
    w.begin_object();
    w.key("name").value(a.name);
    w.key("wall_seconds").value(a.wall);
    w.key("events_per_sec").value(a.events_per_sec);
    w.key("peak_rss_bytes").value(a.peak_rss);
    w.key("trace").begin_object();
    w.key("recorded").value(a.trace_recorded);
    w.key("dropped_ring").value(a.trace_dropped_ring);
    w.key("dropped_sampling").value(a.trace_dropped_sampling);
    w.end_object();
    w.key("phases");
    a.prof.write_json(w);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  // Sampled time series from the fourth (timeline) run. Deterministic like
  // "sim", but optional: null if sampling produced nothing.
  w.key("timeline");
  if (timeline_json.empty()) {
    w.null();
  } else {
    w.raw(timeline_json);
  }
  w.end_object();

  const std::string path = bench::bench_dir() + "/BENCH_engine.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace vmstorm

int main() { return vmstorm::run(); }
