// Cloud-level timeline sampling: determinism, tracing independence, the
// phase analyzer's agreement with critical-path attribution, and the
// summary gauges that work even with sampling off.
#include <gtest/gtest.h>

#include "cloud/cloud.hpp"
#include "obs/critpath.hpp"
#include "obs/phases.hpp"

namespace vmstorm::cloud {
namespace {

CloudConfig small_config(std::size_t nodes = 4) {
  CloudConfig cfg;
  cfg.compute_nodes = nodes;
  cfg.image_size = 32_MiB;
  cfg.chunk_size = 256_KiB;
  cfg.qcow_cluster_size = 64_KiB;
  cfg.broadcast.chunk_size = 1_MiB;
  cfg.seed = 2011;
  return cfg;
}

vm::BootTraceParams small_trace() {
  vm::BootTraceParams p;
  p.image_size = 32_MiB;
  p.read_volume = 2_MiB;
  p.write_volume = 256_KiB;
  p.cpu_seconds = 1.0;
  return p;
}

TEST(CloudTimeline, SamplerCoversTheRunAndDrainsCleanly) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.enable_timeline();
  auto m = cloud.multideploy(4, small_trace());
  EXPECT_EQ(m.boot_seconds.count(), 4u);
  // The background sampler must not leave the engine with live tasks.
  EXPECT_EQ(cloud.engine().live_tasks(), 0u);
  const obs::Timeline& tl = cloud.obs().timeline;
  EXPECT_GT(tl.samples_taken(), 0u);
  // The sampled window reaches the end of the run.
  const std::vector<double> t = tl.times();
  ASSERT_FALSE(t.empty());
  EXPECT_GE(t.back() + tl.cadence_seconds(), m.completion_seconds);
  // Aggregate series exist and the throughput one saw actual traffic.
  const auto id = tl.find_series("net.throughput_bytes_per_sec");
  ASSERT_LT(id, tl.series_count());
  double peak = 0;
  for (double v : tl.values(id)) peak = std::max(peak, v);
  EXPECT_GT(peak, 0.0);
}

TEST(CloudTimeline, SameSeedSameBytes) {
  const auto run = [] {
    Cloud cloud(small_config(), Strategy::kOurs);
    cloud.enable_timeline();
    cloud.multideploy(4, small_trace());
    return cloud.timeline_json();
  };
  const std::string a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run());
}

TEST(CloudTimeline, TracingArmsCannotPerturbTheTimeline) {
  // Mirror of the bench_scale three-arm invariant: tracing off, sampled,
  // and full must all record the identical timeline, because the tracer
  // never schedules events of its own.
  const auto run = [](double sample_rate) {
    Cloud cloud(small_config(), Strategy::kOurs);
    cloud.obs().trace.set_enabled(sample_rate >= 0);
    if (sample_rate >= 0 && sample_rate < 1.0) {
      cloud.obs().trace.set_sampling(sample_rate, 2011);
    }
    cloud.enable_timeline();
    cloud.multideploy(4, small_trace());
    return cloud.timeline_json();
  };
  const std::string off = run(-1.0);
  EXPECT_FALSE(off.empty());
  EXPECT_EQ(off, run(1.0 / 64.0));
  EXPECT_EQ(off, run(1.0));
}

TEST(CloudTimeline, PhasesAgreeWithCriticalPathAttribution) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.obs().trace.set_enabled(true);
  cloud.enable_timeline();
  cloud.multideploy(4, small_trace());

  const obs::Timeline& tl = cloud.obs().timeline;
  obs::PhaseOptions opts;
  opts.cadence_seconds = tl.cadence_seconds();
  const obs::PhaseReport report = obs::analyze_phases(
      tl.times(), tl.values(tl.find_series("util.repo_disk")),
      tl.values(tl.find_series("util.network")),
      tl.values(tl.find_series("util.local_disk")), opts);
  EXPECT_GT(report.samples, 0u);
  double total = 0;
  for (double v : report.totals) total += v;
  EXPECT_NEAR(total, report.duration, 1e-6);

  const obs::CritReport crit =
      obs::analyze_critical_paths(cloud.obs().trace.events());
  ASSERT_FALSE(crit.rows.empty());
  const Status st = obs::cross_check_attribution(report, crit);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
}

TEST(CloudTimeline, SnapshotRunsSampleToo) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.enable_timeline();
  cloud.multideploy(4, small_trace());
  const std::uint64_t after_deploy = cloud.obs().timeline.samples_taken();
  ASSERT_TRUE(cloud.multisnapshot().is_ok());
  EXPECT_GT(cloud.obs().timeline.samples_taken(), after_deploy);
  EXPECT_EQ(cloud.engine().live_tasks(), 0u);
}

TEST(CloudTimeline, ImbalanceGaugesWorkWithSamplingOff) {
  Cloud cloud(small_config(), Strategy::kOurs);
  ASSERT_FALSE(cloud.timeline_enabled());
  cloud.multideploy(4, small_trace());
  cloud.collect_metrics();
  obs::Registry& m = cloud.obs().metrics;
  const double qd_max = m.gauge("blob.provider.queue_depth_max").value();
  const double qd_mean = m.gauge("blob.provider.queue_depth_mean").value();
  EXPECT_GT(qd_max, 0.0);
  EXPECT_GT(qd_mean, 0.0);
  EXPECT_GE(qd_max, qd_mean);
  // Some provider served more than the mean: the ratio is >= 1 whenever
  // any repository traffic flowed at all.
  EXPECT_GE(m.gauge("blob.provider.imbalance").value(), 1.0);
}

TEST(CloudTimeline, TimelineGaugesExportedWhenEnabled) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.enable_timeline();
  cloud.multideploy(4, small_trace());
  cloud.collect_metrics();
  obs::Registry& m = cloud.obs().metrics;
  EXPECT_GT(m.gauge("timeline.samples_taken").value(), 0.0);
  EXPECT_EQ(m.gauge("timeline.dropped_samples").value(), 0.0);
}

}  // namespace
}  // namespace vmstorm::cloud
