#include "obs/selfprof.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace vmstorm::obs {
namespace {

TEST(SelfProfiler, ChargeAccumulatesPerPhase) {
  SelfProfiler prof;
  prof.charge(SelfProfiler::kTracer, 0.25);
  prof.charge(SelfProfiler::kTracer, 0.25);
  prof.charge(SelfProfiler::kQueueOps, 0.125);
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kTracer), 0.5);
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kQueueOps), 0.125);
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kAuditor), 0.0);
  EXPECT_DOUBLE_EQ(prof.run_seconds(), 0.0);
}

TEST(SelfProfiler, DerivedBucketsTileRunTime) {
  SelfProfiler prof;
  prof.charge_run(1.0);
  prof.charge(SelfProfiler::kQueueOps, 0.2);
  prof.charge(SelfProfiler::kAuditor, 0.1);
  prof.charge(SelfProfiler::kResume, 0.5);
  prof.charge(SelfProfiler::kTracer, 0.2);  // nested inside kResume
  EXPECT_NEAR(prof.dispatch_seconds(), 0.2, 1e-12);  // 1.0 - .2 - .1 - .5
  EXPECT_NEAR(prof.user_seconds(), 0.3, 1e-12);      // .5 - .2
}

TEST(SelfProfiler, DerivedBucketsClampAgainstTimerNoise) {
  SelfProfiler prof;
  // Phase timers can sum past the run timer (clock granularity); the
  // derived buckets must clamp rather than go negative.
  prof.charge_run(0.1);
  prof.charge(SelfProfiler::kResume, 0.3);
  prof.charge(SelfProfiler::kTracer, 0.4);
  EXPECT_DOUBLE_EQ(prof.dispatch_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(prof.user_seconds(), 0.0);
}

TEST(SelfProfiler, WallNowIsMonotone) {
  const double t0 = SelfProfiler::wall_now();
  double t1 = t0;
  for (int i = 0; i < 1000; ++i) t1 = SelfProfiler::wall_now();
  EXPECT_GE(t1, t0);
}

TEST(SelfProfiler, WriteJsonCoversPhaseEnum) {
  SelfProfiler prof;
  prof.charge_run(1.0);
  prof.charge(SelfProfiler::kQueueOps, 0.125);
  prof.charge(SelfProfiler::kResume, 0.5);
  prof.charge(SelfProfiler::kTracer, 0.25);
  JsonWriter w;
  prof.write_json(w);
  // BENCH_engine's arm "phases" object: these six keys, in this order.
  EXPECT_EQ(w.str(),
            "{\"queue_ops\":0.125,\"auditor\":0,\"resume\":0.5,"
            "\"tracer\":0.25,\"dispatch\":0.375,\"user_work\":0.25}");
  auto doc = parse_json(w.str());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_DOUBLE_EQ((*doc)["resume"].as_number(), 0.5);
}

TEST(SelfProfiler, RssReadersReportTheProcess) {
#if defined(__linux__)
  // VmHWM is a high-water mark: nonzero for a live process, and a later
  // reading is never below an earlier one.
  const std::uint64_t peak = peak_rss_bytes();
  EXPECT_GT(peak, 0u);
  EXPECT_GE(peak_rss_bytes(), peak);
#else
  EXPECT_EQ(peak_rss_bytes(), 0u);
#endif
}

sim::Task<void> napper(sim::Engine& e, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await e.sleep(sim::from_seconds(0.5));
  }
}

TEST(SelfProfiler, EngineTilesItsRunTime) {
  sim::Engine e;
  SelfProfiler prof;
  e.set_profiler(&prof);
  EXPECT_EQ(e.profiler(), &prof);
  for (int i = 0; i < 16; ++i) e.spawn(napper(e, 8));
  e.run();
  e.set_profiler(nullptr);
  EXPECT_GT(prof.run_seconds(), 0.0);
  EXPECT_GT(prof.seconds(SelfProfiler::kQueueOps), 0.0);
  EXPECT_GT(prof.seconds(SelfProfiler::kResume), 0.0);
  // No auditor installed, no tracer attached: those buckets stay empty.
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kAuditor), 0.0);
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kTracer), 0.0);
  // Phases never exceed what the run timer saw (they tile it).
  EXPECT_LE(prof.seconds(SelfProfiler::kQueueOps) +
                prof.seconds(SelfProfiler::kAuditor) +
                prof.seconds(SelfProfiler::kResume),
            prof.run_seconds() + 1e-3);
}

}  // namespace
}  // namespace vmstorm::obs
