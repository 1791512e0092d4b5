// Determinism regression against the committed bench baseline: replays the
// quick bench_scale workload (the exact config via cloud/scale_workload.hpp)
// twice in-process and asserts the deterministic engine counters — the
// artifact's "sim" section — match bench/baselines/BENCH_engine_quick.json
// value for value.
//
// This is the byte-identity contract as a tier-1 test: the sim section is a
// pure function of the seed, so ANY divergence here is an event-ordering
// change (e.g. a queue that dispatches equal-time events in a different
// order), which is a correctness regression to fix, not a baseline to
// refresh. Host-dependent numbers (wall time, RSS) live in the artifact's
// "overhead" section and are deliberately not looked at here.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "cloud/cloud.hpp"
#include "cloud/scale_workload.hpp"
#include "obs/json.hpp"

namespace vmstorm::cloud {
namespace {

#ifndef VMSTORM_BASELINE_DIR
#error "VMSTORM_BASELINE_DIR must point at bench/baselines"
#endif

struct SimSection {
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t queue_depth_high_water = 0;
  std::uint64_t wait_records_created = 0;
  std::uint64_t wait_records_live_high_water = 0;
  std::uint64_t cancelled_wakeups = 0;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped_ring = 0;
  std::uint64_t trace_dropped_sampling = 0;

  bool operator==(const SimSection&) const = default;
};

std::uint64_t u64_field(const obs::JsonValue& obj, std::string_view key) {
  const obs::JsonValue* v = obj.find(key);
  EXPECT_NE(v, nullptr) << "baseline sim section is missing \"" << key << '"';
  return v != nullptr ? static_cast<std::uint64_t>(v->as_number()) : 0;
}

SimSection baseline_sim() {
  const std::string path =
      std::string(VMSTORM_BASELINE_DIR) + "/BENCH_engine_quick.json";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = obs::parse_json(buf.str());
  EXPECT_TRUE(doc.is_ok()) << "baseline is not valid JSON: " << path;
  SimSection s;
  if (!doc.is_ok()) return s;
  const obs::JsonValue& sim = (*doc)["sim"];
  EXPECT_TRUE(sim.is_object()) << "baseline has no sim section";
  s.events_processed = u64_field(sim, "events_processed");
  s.events_scheduled = u64_field(sim, "events_scheduled");
  s.queue_depth_high_water = u64_field(sim, "queue_depth_high_water");
  s.wait_records_created = u64_field(sim, "wait_records_created");
  s.wait_records_live_high_water =
      u64_field(sim, "wait_records_live_high_water");
  s.cancelled_wakeups = u64_field(sim, "cancelled_wakeups");
  const obs::JsonValue& tr = sim["trace"];
  s.trace_recorded = u64_field(tr, "recorded");
  s.trace_dropped_ring = u64_field(tr, "dropped_ring");
  s.trace_dropped_sampling = u64_field(tr, "dropped_sampling");
  return s;
}

/// One quick bench_scale workload with full tracing — the arm whose trace
/// counters the artifact's sim section records (and whose deterministic
/// counters bench_scale asserts are identical to the untraced arm's).
SimSection run_quick_workload() {
  const CloudConfig cfg = scale_config(kScaleQuickNodes);
  const vm::BootTraceParams tp = scale_trace();
  Cloud c(cfg, Strategy::kOurs);
  c.obs().trace.set_enabled(true);     // override VMSTORM_TRACE
  c.obs().timeline.set_enabled(false); // the sampler is an engine task
  c.multideploy(cfg.compute_nodes, tp);
  auto snap = c.multisnapshot();
  EXPECT_TRUE(snap.is_ok()) << snap.status().to_string();
  SimSection s;
  const sim::Engine& e = c.engine();
  s.events_processed = e.events_processed();
  s.events_scheduled = e.events_scheduled();
  s.queue_depth_high_water = e.queue_depth_high_water();
  s.wait_records_created = e.wait_records_created();
  s.wait_records_live_high_water = e.wait_records_live_high_water();
  s.cancelled_wakeups = e.cancelled_wakeups();
  const obs::Tracer& tr = c.obs().trace;
  s.trace_recorded = tr.recorded_total();
  s.trace_dropped_ring = tr.dropped_ring();
  s.trace_dropped_sampling = tr.dropped_sampling();
  return s;
}

#define EXPECT_SIM_FIELD_EQ(a, b, field) \
  EXPECT_EQ((a).field, (b).field) << "sim section field: " #field

void expect_sim_eq(const SimSection& got, const SimSection& want) {
  EXPECT_SIM_FIELD_EQ(got, want, events_processed);
  EXPECT_SIM_FIELD_EQ(got, want, events_scheduled);
  EXPECT_SIM_FIELD_EQ(got, want, queue_depth_high_water);
  EXPECT_SIM_FIELD_EQ(got, want, wait_records_created);
  EXPECT_SIM_FIELD_EQ(got, want, wait_records_live_high_water);
  EXPECT_SIM_FIELD_EQ(got, want, cancelled_wakeups);
  EXPECT_SIM_FIELD_EQ(got, want, trace_recorded);
  EXPECT_SIM_FIELD_EQ(got, want, trace_dropped_ring);
  EXPECT_SIM_FIELD_EQ(got, want, trace_dropped_sampling);
}

TEST(ScaleDeterminism, QuickSimSectionMatchesCommittedBaselineExactly) {
  const SimSection want = baseline_sim();
  ASSERT_GT(want.events_processed, 0u) << "baseline load failed";
  const SimSection first = run_quick_workload();
  expect_sim_eq(first, want);
  // Same seed, same process, fresh Cloud: the double run guards against
  // state leaking between runs (globals, statics) on top of the ordering
  // contract itself.
  const SimSection second = run_quick_workload();
  expect_sim_eq(second, want);
  EXPECT_TRUE(first == second);
}

}  // namespace
}  // namespace vmstorm::cloud
