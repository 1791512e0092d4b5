// Small-scale end-to-end tests of the cloud orchestration: a shrunken
// testbed (small image, few nodes) exercising the full §5.2/§5.3/§5.5
// pipelines for all three strategies.
#include "cloud/cloud.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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

TEST(Cloud, OursMultideployBootsAll) {
  Cloud cloud(small_config(), Strategy::kOurs);
  auto m = cloud.multideploy(4, small_trace());
  EXPECT_EQ(m.boot_seconds.count(), 4u);
  EXPECT_GT(m.boot_seconds.mean(), 1.0);   // at least the CPU floor
  EXPECT_GT(m.completion_seconds, m.boot_seconds.mean());
  // Lazy: traffic well under one image per instance.
  EXPECT_LT(m.network_traffic, 4 * 32_MiB / 2);
  EXPECT_GT(m.network_traffic, 4 * 2_MiB);
  EXPECT_EQ(cloud.engine().live_tasks(), 0u);
}

TEST(Cloud, QcowMultideployBootsAll) {
  Cloud cloud(small_config(), Strategy::kQcowOverPvfs);
  auto m = cloud.multideploy(4, small_trace());
  EXPECT_EQ(m.boot_seconds.count(), 4u);
  EXPECT_LT(m.network_traffic, 4 * 32_MiB / 2);
}

TEST(Cloud, PrepropagationMultideployBroadcastsEverything) {
  Cloud cloud(small_config(), Strategy::kPrepropagation);
  auto m = cloud.multideploy(4, small_trace());
  EXPECT_EQ(m.boot_seconds.count(), 4u);
  EXPECT_GT(m.broadcast_seconds, 0.0);
  // Full image to each node.
  EXPECT_GE(m.network_traffic, 4 * 32_MiB);
  // Completion includes the broadcast.
  EXPECT_GE(m.completion_seconds, m.broadcast_seconds);
}

TEST(Cloud, OursIsLazierThanPrepropagation) {
  Cloud ours(small_config(), Strategy::kOurs);
  Cloud pre(small_config(), Strategy::kPrepropagation);
  auto mo = ours.multideploy(4, small_trace());
  auto mp = pre.multideploy(4, small_trace());
  EXPECT_LT(mo.completion_seconds, mp.completion_seconds);
  EXPECT_LT(mo.network_traffic, mp.network_traffic);
}

TEST(Cloud, OursMultisnapshotPublishesDiffsOnly) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.multideploy(4, small_trace());
  const Bytes repo_before = cloud.repository_bytes();
  auto m = cloud.multisnapshot();
  ASSERT_TRUE(m.is_ok()) << m.status().to_string();
  EXPECT_EQ(m->snapshot_seconds.count(), 4u);
  EXPECT_GT(m->completion_seconds, 0.0);
  // Growth ~ dirty chunks, far below 4 full images.
  EXPECT_GT(m->repository_growth, 0u);
  EXPECT_LT(m->repository_growth, 4 * 32_MiB / 4);
  EXPECT_GT(cloud.repository_bytes(), repo_before);
}

TEST(Cloud, QcowMultisnapshotCopiesFiles) {
  Cloud cloud(small_config(), Strategy::kQcowOverPvfs);
  cloud.multideploy(4, small_trace());
  auto m = cloud.multisnapshot();
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m->snapshot_seconds.count(), 4u);
  EXPECT_GT(m->network_traffic, 0u);
  EXPECT_GT(m->repository_growth, 0u);
}

TEST(Cloud, PrepropagationCannotSnapshot) {
  Cloud cloud(small_config(), Strategy::kPrepropagation);
  cloud.multideploy(2, small_trace());
  EXPECT_EQ(cloud.multisnapshot().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Cloud, SnapshotWithoutDeployFails) {
  Cloud cloud(small_config(), Strategy::kOurs);
  EXPECT_FALSE(cloud.multisnapshot().is_ok());
}

TEST(Cloud, SecondSnapshotCommitsWithoutRecloning) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.multideploy(2, small_trace());
  ASSERT_TRUE(cloud.multisnapshot().is_ok());
  cloud.run_app_phase(1.0, 128_KiB);
  auto m2 = cloud.multisnapshot();
  ASSERT_TRUE(m2.is_ok());
  EXPECT_GT(m2->repository_growth, 0u);
}

TEST(Cloud, OursResumeOnFreshNodes) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.multideploy(3, small_trace());
  ASSERT_TRUE(cloud.multisnapshot().is_ok());
  auto m = cloud.resume_boot(small_trace());
  ASSERT_TRUE(m.is_ok()) << m.status().to_string();
  EXPECT_EQ(m->boot_seconds.count(), 3u);
  // Fresh nodes have nothing mirrored: traffic flows again.
  EXPECT_GT(m->network_traffic, 0u);
}

TEST(Cloud, QcowResumeOnFreshNodes) {
  Cloud cloud(small_config(), Strategy::kQcowOverPvfs);
  cloud.multideploy(3, small_trace());
  ASSERT_TRUE(cloud.multisnapshot().is_ok());
  auto m = cloud.resume_boot(small_trace());
  ASSERT_TRUE(m.is_ok()) << m.status().to_string();
  EXPECT_EQ(m->boot_seconds.count(), 3u);
}

TEST(Cloud, ResumeWithoutSnapshotFails) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.multideploy(2, small_trace());
  EXPECT_FALSE(cloud.resume_boot(small_trace()).is_ok());
}

TEST(Cloud, AppPhaseAdvancesTime) {
  Cloud cloud(small_config(), Strategy::kOurs);
  cloud.multideploy(2, small_trace());
  const double wall = cloud.run_app_phase(5.0, 256_KiB);
  EXPECT_GT(wall, 4.5);
  EXPECT_LT(wall, 8.0);
}

TEST(Cloud, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Cloud cloud(small_config(), Strategy::kOurs);
    auto m = cloud.multideploy(4, small_trace());
    return std::make_pair(m.completion_seconds, m.network_traffic);
  };
  EXPECT_EQ(run(), run());
}

TEST(Cloud, FailedResumeLeavesNoSpanCurrent) {
  // Both fail their precondition after a traced deploy: kOurs because no
  // multisnapshot came first, kPrepropagation because it cannot resume.
  for (Strategy s : {Strategy::kOurs, Strategy::kPrepropagation}) {
    Cloud cloud(small_config(), s);
    cloud.obs().trace.set_enabled(true);
    cloud.multideploy(2, small_trace());
    EXPECT_FALSE(cloud.resume_boot(small_trace()).is_ok());
    EXPECT_EQ(cloud.engine().current_span(), 0u) << strategy_name(s);
  }
}

std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Same-seed exports are a contract: span plumbing must not change what
// gets recorded. Per strategy: deploy 3 VMs, run the app phase, snapshot,
// resume, with tracing and the timeline on (trace-volume knobs pinned
// against the environment), then digest the trace, timeline and metrics
// exports. Prepropagation fails the snapshot and the resume, which the
// digests cover too. A change that moves a digest must say why.
TEST(Cloud, ExportsArePinned) {
  struct Pin {
    Strategy strategy;
    const char* trace;
    const char* timeline;
    const char* metrics;
  };
  for (const Pin& pin : {
           Pin{Strategy::kOurs, "f16be9723ec51b61", "d4fc8c5a5efcff5a",
               "ba94cc036a46df6e"},
           Pin{Strategy::kQcowOverPvfs, "38c69e2b1dabf821", "2b4a36c2c7e093b5",
               "d1a929694f7a2339"},
           Pin{Strategy::kPrepropagation, "259c9dee181efb38",
               "2b31f5c5f89599a5", "52c0bc4f2d140243"},
       }) {
    SCOPED_TRACE(strategy_name(pin.strategy));
    Cloud cloud(small_config(), pin.strategy);
    cloud.obs().trace.set_enabled(true);
    cloud.obs().trace.set_ring_capacity(obs::Tracer::kDefaultRingCapacity);
    cloud.obs().trace.set_sampling(1.0, 0);
    cloud.enable_timeline();
    cloud.multideploy(3, small_trace());
    cloud.run_app_phase(1.0, 128_KiB);
    const bool can_snapshot = pin.strategy != Strategy::kPrepropagation;
    EXPECT_EQ(cloud.multisnapshot().is_ok(), can_snapshot);
    EXPECT_EQ(cloud.resume_boot(small_trace()).is_ok(), can_snapshot);
    EXPECT_EQ(fnv1a(cloud.trace_jsonl()), pin.trace);
    EXPECT_EQ(fnv1a(cloud.timeline_json()), pin.timeline);
    EXPECT_EQ(fnv1a(cloud.metrics_json()), pin.metrics);
  }
}

TEST(Cloud, ReplicationIncreasesRepositoryFootprint) {
  CloudConfig cfg = small_config();
  Cloud base(cfg, Strategy::kOurs);
  cfg.replication = 2;
  Cloud repl(cfg, Strategy::kOurs);
  EXPECT_EQ(repl.repository_bytes(), 2 * base.repository_bytes());
}

}  // namespace
}  // namespace vmstorm::cloud
