// The ISSUE-level observability guarantees, asserted end to end on a small
// cloud: (a) same seed + same config => byte-identical metrics snapshot and
// trace export; (b) the snapshot carries the counters the analysis relies
// on (network traffic, disk queue wait, prefetch hit rate, mirrored-region
// invariant).
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "cloud/cloud.hpp"
#include "obs/critpath.hpp"
#include "obs/selfprof.hpp"

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

struct RunOutput {
  std::string metrics;
  std::string trace;
  std::string jsonl;
  std::string attribution;
  obs::CritReport crit;
};

RunOutput deploy_and_snapshot(Strategy strategy) {
  Cloud cloud(small_config(), strategy);
  cloud.obs().trace.set_enabled(true);
  cloud.multideploy(4, small_trace());
  auto snap = cloud.multisnapshot();
  EXPECT_TRUE(snap.is_ok());
  RunOutput out;
  out.metrics = cloud.metrics_json();
  out.trace = cloud.trace_chrome_json();
  out.jsonl = cloud.trace_jsonl();
  out.crit = obs::analyze_critical_paths(cloud.obs().trace.events());
  out.attribution = obs::attribution_json(out.crit);
  return out;
}

TEST(ObsDeterminism, SameSeedSameBytes) {
  const RunOutput a = deploy_and_snapshot(Strategy::kOurs);
  const RunOutput b = deploy_and_snapshot(Strategy::kOurs);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.attribution, b.attribution);
  EXPECT_FALSE(a.metrics.empty());
  EXPECT_FALSE(a.attribution.empty());
  EXPECT_NE(a.trace.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsDeterminism, AttributionCoversEveryInstanceAndSumsToTotals) {
  const RunOutput out = deploy_and_snapshot(Strategy::kOurs);
  // 4 boot rows from multideploy + 4 snapshot rows from multisnapshot.
  std::size_t boots = 0;
  std::size_t snapshots = 0;
  for (const obs::CritRow& row : out.crit.rows) {
    if (row.kind == "boot") ++boots;
    if (row.kind == "snapshot") ++snapshots;
    const double sum =
        std::accumulate(row.buckets.begin(), row.buckets.end(), 0.0);
    EXPECT_NEAR(sum, row.seconds, 1e-6) << row.kind << " #" << row.instance;
    EXPECT_GT(row.seconds, 0.0);
  }
  EXPECT_EQ(boots, 4u);
  EXPECT_EQ(snapshots, 4u);
  // The deployment physics must be visible: some network transfer time and
  // some repository disk time on at least one boot's critical path.
  double net = 0;
  double repo = 0;
  for (const obs::CritRow& row : out.crit.rows) {
    net += row.buckets[static_cast<std::size_t>(obs::CritBucket::kNetTransfer)];
    repo += row.buckets[static_cast<std::size_t>(obs::CritBucket::kRepoDisk)];
  }
  EXPECT_GT(net, 0.0);
  EXPECT_GT(repo, 0.0);
}

TEST(ObsDeterminism, DifferentSeedDifferentMetrics) {
  const RunOutput a = deploy_and_snapshot(Strategy::kOurs);
  Cloud cloud([] {
    CloudConfig cfg = small_config();
    cfg.seed = 4242;
    return cfg;
  }(), Strategy::kOurs);
  cloud.multideploy(4, small_trace());
  ASSERT_TRUE(cloud.multisnapshot().is_ok());
  // The boot traces are seeded, so at least the latency histograms move.
  EXPECT_NE(a.metrics, cloud.metrics_json());
}

TEST(ObsDeterminism, SnapshotCoversRequiredMetrics) {
  const RunOutput out = deploy_and_snapshot(Strategy::kOurs);
  for (const char* key :
       {"\"net.total_traffic_bytes\"", "\"net.transfers\"",
        "\"disk.queue_wait_seconds_total\"", "\"disk.cache_hit_ratio\"",
        "\"mirror.prefetch_hit_ratio\"", "\"mirror.fragment_count\"",
        "\"mirror.single_region_invariant\"", "\"blob.fetched_bytes\"",
        "\"blob.commits\"", "\"sim.events_processed\"",
        "\"cloud.instances\""}) {
    EXPECT_NE(out.metrics.find(key), std::string::npos) << key;
  }
}

TEST(ObsDeterminism, TraceCoversPhases) {
  const RunOutput out = deploy_and_snapshot(Strategy::kOurs);
  for (const char* name :
       {"\"multideploy\"", "\"boot\"", "\"multisnapshot\"", "\"snapshot\"",
        "\"transfer\"", "\"commit\""}) {
    EXPECT_NE(out.trace.find(name), std::string::npos) << name;
  }
}

TEST(ObsDeterminism, TracingOffByDefaultAndCheap) {
  Cloud cloud(small_config(), Strategy::kOurs);
  // VMSTORM_TRACE is not set in the test environment.
  cloud.multideploy(4, small_trace());
  EXPECT_EQ(cloud.obs().trace.size(), 0u);
  // Metrics are always on.
  EXPECT_NE(cloud.metrics_json().find("net.total_traffic_bytes"),
            std::string::npos);
}

RunOutput deploy_and_snapshot_with_telemetry() {
  const CloudConfig cfg = small_config();
  Cloud cloud(cfg, Strategy::kOurs);
  cloud.obs().trace.set_enabled(true);
  // Full telemetry stack: bounded ring, seeded sampling, host profiler.
  cloud.obs().trace.set_ring_capacity(std::size_t{1} << 12);
  cloud.obs().trace.set_sampling(0.25, cfg.seed);
  obs::SelfProfiler prof;
  cloud.engine().set_profiler(&prof);
  cloud.obs().trace.set_profiler(&prof);
  cloud.multideploy(4, small_trace());
  EXPECT_TRUE(cloud.multisnapshot().is_ok());
  EXPECT_GT(prof.run_seconds(), 0.0);
  cloud.engine().set_profiler(nullptr);
  cloud.obs().trace.set_profiler(nullptr);
  RunOutput out;
  out.metrics = cloud.metrics_json();
  out.trace = cloud.trace_chrome_json();
  out.jsonl = cloud.trace_jsonl();
  return out;
}

TEST(ObsDeterminism, TelemetryEnabledRunsStayByteIdentical) {
  const RunOutput a = deploy_and_snapshot_with_telemetry();
  const RunOutput b = deploy_and_snapshot_with_telemetry();
  // The ISSUE-level contract: ring, sampling, and the host profiler are
  // invisible to the seed-deterministic exports.
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.jsonl.empty());
  // Host-time numbers must not leak into the fingerprinted snapshot.
  EXPECT_EQ(a.metrics.find("engine.wall_seconds"), std::string::npos);
  EXPECT_EQ(a.metrics.find("host.peak_rss_bytes"), std::string::npos);
  // The telemetry counters themselves are part of the deterministic export.
  for (const char* key :
       {"\"sim.events_scheduled\"", "\"sim.queue_depth_high_water\"",
        "\"sim.wait_records_created\"", "\"sim.wait_records_live\"",
        "\"sim.wait_records_live_high_water\"", "\"trace.sampled\"",
        "\"trace.dropped\"", "\"trace.dropped_ring\"",
        "\"trace.dropped_sampling\""}) {
    EXPECT_NE(a.metrics.find(key), std::string::npos) << key;
  }
}

TEST(ObsDeterminism, SampledTraceIsSubsetOfFull) {
  const RunOutput sampled = deploy_and_snapshot_with_telemetry();
  const RunOutput full = deploy_and_snapshot(Strategy::kOurs);
  // Span ids are allocated whether or not a tree is kept, so every line of
  // the sampled export appears verbatim in the full export.
  std::size_t checked = 0;
  std::size_t pos = 0;
  while (pos < sampled.jsonl.size()) {
    std::size_t nl = sampled.jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = sampled.jsonl.size();
    const std::string line = sampled.jsonl.substr(pos, nl - pos);
    if (!line.empty()) {
      EXPECT_NE(full.jsonl.find(line), std::string::npos) << line;
      ++checked;
    }
    pos = nl + 1;
  }
  EXPECT_GT(checked, 0u);
  EXPECT_LT(sampled.jsonl.size(), full.jsonl.size());
}

TEST(ObsDeterminism, HostGaugesExportSeparately) {
  Cloud cloud(small_config(), Strategy::kOurs);
  obs::SelfProfiler prof;
  cloud.engine().set_profiler(&prof);
  cloud.multideploy(4, small_trace());
  const std::string metrics = cloud.metrics_json();
  const std::string host = cloud.obs().metrics.host_json();
  // Deterministic snapshot and host-side overhead live in disjoint scopes.
  EXPECT_EQ(metrics.find("engine.wall_seconds"), std::string::npos);
  for (const char* key :
       {"\"engine.wall_seconds\"", "\"engine.events_per_sec\"",
        "\"engine.dispatch_seconds\"", "\"engine.tracer_seconds\"",
        "\"host.peak_rss_bytes\""}) {
    EXPECT_NE(host.find(key), std::string::npos) << key;
  }
  cloud.engine().set_profiler(nullptr);
}

TEST(ObsDeterminism, CollectMetricsIsIdempotent) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.multideploy(4, small_trace());
  const std::string once = cloud.metrics_json();
  const std::string twice = cloud.metrics_json();
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace vmstorm::cloud
