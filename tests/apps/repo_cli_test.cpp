#include "apps/repo_cli.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <fstream>

#include "blob/chunk.hpp"
#include "obs/phases.hpp"
#include "obs/timeline.hpp"
#include "support/file_size_limit.hpp"

namespace vmstorm::apps {
namespace {

struct CliFixture : ::testing::Test {
  std::string repo;
  int counter = 0;

  void SetUp() override {
    repo = ::testing::TempDir() + "/cli_repo_" + std::to_string(::getpid()) +
           ".bin";
    auto r = run_repo_cli({"init", repo, "--providers", "4"});
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  }
  void TearDown() override { std::remove(repo.c_str()); }

  std::string make_file(std::size_t size, std::uint64_t seed) {
    std::string path = ::testing::TempDir() + "/cli_file_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(counter++) + ".bin";
    std::ofstream out(path, std::ios::binary);
    for (std::size_t i = 0; i < size; ++i) {
      out.put(static_cast<char>(blob::pattern_byte(seed, i)));
    }
    return path;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
};

TEST_F(CliFixture, UploadDownloadRoundTrip) {
  // The default chunk, then a chunk size near 2^64 (one chunk).
  const std::vector<std::vector<std::string>> chunk_flags = {
      {}, {"--chunk", "18446744073709551565"}};
  for (std::size_t i = 0; i < chunk_flags.size(); ++i) {
    const std::string blob = std::to_string(i + 1);
    const std::string src = make_file(10000, 7);
    std::vector<std::string> args = {"upload", repo, src};
    args.insert(args.end(), chunk_flags[i].begin(), chunk_flags[i].end());
    auto up = run_repo_cli(args);
    ASSERT_TRUE(up.is_ok()) << up.status().to_string();
    EXPECT_NE(up->find("blob " + blob + " version 1"), std::string::npos);

    const std::string dst = src + ".out";
    auto down = run_repo_cli({"download", repo, blob, "1", dst});
    ASSERT_TRUE(down.is_ok()) << down.status().to_string();
    EXPECT_EQ(slurp(src), slurp(dst));
    std::remove(src.c_str());
    std::remove(dst.c_str());
  }
}

TEST_F(CliFixture, LsAndStat) {
  const std::string src = make_file(5000, 1);
  ASSERT_TRUE(run_repo_cli({"upload", repo, src, "--chunk", "1K"}).is_ok());
  auto ls = run_repo_cli({"ls", repo});
  ASSERT_TRUE(ls.is_ok());
  EXPECT_NE(ls->find("1 blob(s)"), std::string::npos);
  auto stat = run_repo_cli({"stat", repo, "1"});
  ASSERT_TRUE(stat.is_ok());
  EXPECT_NE(stat->find("5 chunks"), std::string::npos);
  std::remove(src.c_str());
}

TEST_F(CliFixture, CloneAndPatchDiverge) {
  const std::string src = make_file(4096, 1);
  ASSERT_TRUE(run_repo_cli({"upload", repo, src, "--chunk", "1K"}).is_ok());
  auto clone = run_repo_cli({"clone", repo, "1", "1"});
  ASSERT_TRUE(clone.is_ok());
  EXPECT_NE(clone->find("as blob 2"), std::string::npos);

  const std::string patch = make_file(100, 9);
  auto patched = run_repo_cli({"patch", repo, "2", "500", patch});
  ASSERT_TRUE(patched.is_ok()) << patched.status().to_string();
  EXPECT_NE(patched->find("new version 1"), std::string::npos);

  // Original blob unchanged; clone shows the patch.
  const std::string d1 = src + ".orig", d2 = src + ".clone";
  ASSERT_TRUE(run_repo_cli({"download", repo, "1", "1", d1}).is_ok());
  ASSERT_TRUE(run_repo_cli({"download", repo, "2", "1", d2}).is_ok());
  EXPECT_EQ(slurp(d1), slurp(src));
  std::string clone_data = slurp(d2);
  EXPECT_NE(clone_data, slurp(src));
  EXPECT_EQ(clone_data.substr(0, 500), slurp(src).substr(0, 500));
  for (const auto& f : {src, patch, d1, d2}) std::remove(f.c_str());
}

TEST_F(CliFixture, ErrorsAreReported) {
  EXPECT_FALSE(run_repo_cli({}).is_ok());
  EXPECT_FALSE(run_repo_cli({"frobnicate", repo}).is_ok());
  EXPECT_FALSE(run_repo_cli({"ls"}).is_ok());
  EXPECT_FALSE(run_repo_cli({"ls", "/nonexistent/repo.bin"}).is_ok());
  EXPECT_FALSE(run_repo_cli({"stat", repo, "999"}).is_ok());
  EXPECT_FALSE(run_repo_cli({"upload", repo, "/nonexistent/file"}).is_ok());
  EXPECT_FALSE(run_repo_cli({"upload", repo, "--chunk"}).is_ok());
  EXPECT_FALSE(run_repo_cli({"download", repo, "1", "9", "/tmp/x"}).is_ok());

  // A directory where a file is expected cannot be read: UNAVAILABLE,
  // naming the path, from every command that reads one.
  const std::string dir = ::testing::TempDir();
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"upload", repo, dir},
           {"patch", repo, "1", "0", dir},
           {"ls", dir},
           {"critpath", dir},
           {"engine-stats", dir},
           {"timeline", dir}}) {
    auto r = run_repo_cli(args);
    ASSERT_FALSE(r.is_ok()) << args[0];
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << args[0] << ": " << r.status().to_string();
    EXPECT_NE(r.status().message().find(dir), std::string::npos)
        << args[0] << ": " << r.status().to_string();
  }
}

TEST_F(CliFixture, FailedSaveKeepsPreviousRepository) {
  const auto exists = [](const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0;
  };
  const std::string src = make_file(3000, 1);
  ASSERT_TRUE(run_repo_cli({"upload", repo, src, "--chunk", "1K"}).is_ok());
  const std::string fresh = repo + ".fresh";
  {
    // Every write that would grow a file fails, as on a full disk.
    test_support::FileSizeLimit limit(0);
    EXPECT_FALSE(run_repo_cli({"init", fresh}).is_ok());
    EXPECT_FALSE(run_repo_cli({"clone", repo, "1", "1"}).is_ok());
  }
  EXPECT_FALSE(exists(fresh));
  EXPECT_FALSE(exists(fresh + ".tmp"));
  EXPECT_FALSE(exists(repo + ".tmp"));
  // The repository is the one saved before the failed clone.
  auto ls = run_repo_cli({"ls", repo});
  ASSERT_TRUE(ls.is_ok()) << ls.status().to_string();
  EXPECT_NE(ls->find("1 blob(s)"), std::string::npos) << *ls;
  EXPECT_TRUE(run_repo_cli({"stat", repo, "1"}).is_ok());
  std::remove(src.c_str());
}

class CliTimeline : public ::testing::Test {
 protected:
  std::string write_artifact(const std::string& body) {
    path_ = ::testing::TempDir() + "/cli_timeline_" +
            std::to_string(::getpid()) + ".json";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << body;
    return path_;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  /// A small valid artifact produced by the real export code: four samples
  /// whose argmax walks repo -> network -> local-disk -> idle.
  static std::string small_artifact() {
    obs::Timeline tl;
    obs::TimelineConfig cfg;
    cfg.cadence_seconds = 1.0;
    cfg.capacity = 8;
    tl.configure(cfg);
    const auto tp = tl.add_series("net.throughput_bytes_per_sec");
    const auto un = tl.add_series("util.network");
    const auto ur = tl.add_series("util.repo_disk");
    const auto ul = tl.add_series("util.local_disk");
    const auto pu = tl.add_series("provider.util", {{"provider", "0"}});
    const double net[] = {0.2, 0.8, 0.1, 0.01};
    const double repo[] = {0.9, 0.3, 0.2, 0.01};
    const double local[] = {0.0, 0.0, 0.6, 0.01};
    for (int i = 0; i < 4; ++i) {
      tl.begin_sample(static_cast<double>(i + 1));
      tl.record(tp, 1e7 * (i + 1));
      tl.record(un, net[i]);
      tl.record(ur, repo[i]);
      tl.record(ul, local[i]);
      tl.record(pu, repo[i]);
    }
    obs::PhaseOptions opts;
    opts.cadence_seconds = 1.0;
    const obs::PhaseReport rep = obs::analyze_phases(
        tl.times(), tl.values(ur), tl.values(un), tl.values(ul), opts);
    return "{\"schema\":\"vmstorm-bench-v3\",\"name\":\"tltest\","
           "\"timeline\":" +
           tl.to_json(obs::phases_json(rep)) + "}";
  }

  std::string path_;
};

TEST_F(CliTimeline, RendersSparklinesStripAndPhases) {
  const std::string path = write_artifact(small_artifact());
  auto r = run_repo_cli({"timeline", path});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_NE(r->find("4 samples"), std::string::npos);
  EXPECT_NE(r->find("net.throughput_bytes_per_sec"), std::string::npos);
  // One sample per regime, in order: the strip reads RND followed by idle.
  EXPECT_NE(r->find("|RND."), std::string::npos);
  EXPECT_NE(r->find("repo_bound"), std::string::npos);
  EXPECT_NE(r->find("local_disk_bound"), std::string::npos);
  EXPECT_NE(r->find("provider disk utilization"), std::string::npos);
  EXPECT_NE(r->find("(closed)"), std::string::npos);
  EXPECT_NE(r->find("recomputed segmentation matches"), std::string::npos);
}

TEST_F(CliTimeline, RenderIsDeterministic) {
  const std::string path = write_artifact(small_artifact());
  auto a = run_repo_cli({"timeline", path});
  auto b = run_repo_cli({"timeline", path});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(CliTimeline, RejectsArtifactWithoutTimeline) {
  const std::string path = write_artifact(
      "{\"schema\":\"vmstorm-bench-v3\",\"name\":\"x\",\"timeline\":null}");
  auto r = run_repo_cli({"timeline", path});
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.status().to_string().find("no timeline section"),
            std::string::npos);
}

TEST_F(CliTimeline, RejectsTamperedPhaseTotals) {
  // Recomputing the segmentation from the series must expose an embedded
  // phases object that doesn't match them.
  std::string body = small_artifact();
  const std::string needle = "\"totals\":{\"idle\":1";
  const auto pos = body.find(needle);
  ASSERT_NE(pos, std::string::npos) << body;
  body.replace(pos, needle.size(), "\"totals\":{\"idle\":3");
  const std::string path = write_artifact(body);
  auto r = run_repo_cli({"timeline", path});
  EXPECT_FALSE(r.is_ok());
}

TEST(CliParse, Sizes) {
  EXPECT_EQ(parse_size("1024").value(), 1024u);
  EXPECT_EQ(parse_size("256K").value(), 256_KiB);
  EXPECT_EQ(parse_size("4m").value(), 4_MiB);
  EXPECT_EQ(parse_size("2G").value(), 2_GiB);
  EXPECT_FALSE(parse_size("").is_ok());
  EXPECT_FALSE(parse_size("abc").is_ok());
  EXPECT_FALSE(parse_size("5X").is_ok());
  EXPECT_FALSE(parse_size("5KB").is_ok());
  EXPECT_FALSE(parse_size("K").is_ok());
  EXPECT_EQ(parse_size("18446744073709551615").value(), ~Bytes{0});
  // strtoull saturates these at 2^64-1; "-1" negates to it.
  EXPECT_FALSE(parse_size("18446744073709551616").is_ok());
  EXPECT_FALSE(parse_size("99999999999999999999").is_ok());
  EXPECT_FALSE(parse_size("-1").is_ok());
  EXPECT_FALSE(parse_size(" 1").is_ok());
  // The product wraps: 2^34 GiB is 2^64 bytes, which is 0.
  EXPECT_EQ(parse_size("17179869183G").value(), 17179869183ull * kGiB);
  EXPECT_FALSE(parse_size("17179869184G").is_ok());
  EXPECT_FALSE(parse_size("18014398509481984K").is_ok());
}

TEST_F(CliFixture, PatchAtWrappedOffsetFails) {
  const std::string src = make_file(4096, 1);
  ASSERT_TRUE(run_repo_cli({"upload", repo, src, "--chunk", "1K"}).is_ok());
  const std::string patch = make_file(100, 9);
  EXPECT_FALSE(run_repo_cli({"patch", repo, "1", "17179869184G", patch}).is_ok());
  auto stat = run_repo_cli({"stat", repo, "1"});
  ASSERT_TRUE(stat.is_ok());
  EXPECT_NE(stat->find("versions 0..1\n"), std::string::npos) << *stat;
  for (const auto& f : {src, patch}) std::remove(f.c_str());
}

TEST(CliInit, DedupAndReplicationFlags) {
  const std::string repo = ::testing::TempDir() + "/cli_repo_flags.bin";
  auto r = run_repo_cli(
      {"init", repo, "--providers", "3", "--replication", "2", "--dedup"});
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r->find("replication 2"), std::string::npos);
  EXPECT_NE(r->find("dedup on"), std::string::npos);
  std::remove(repo.c_str());
}

std::string write_engine_artifact(const std::string& schema) {
  const std::string path = ::testing::TempDir() + "/cli_bench_engine_" +
                           std::to_string(::getpid()) + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const char* arms[] = {"off", "sampled", "full"};
  out << R"({"schema":")" << schema << R"(","name":"engine",)"
      << R"("title":"engine self-telemetry","quick":true,)"
      << R"("config":{"instances":256,"seed":2011,)"
      << R"("fingerprint":"0123456789abcdef"},)"
      << R"("sim":{"events_processed":10000,"events_scheduled":10400,)"
      << R"("queue_depth_high_water":512,"wait_records_created":4000,)"
      << R"("wait_records_live_high_water":256,"cancelled_wakeups":3,)"
      << R"("trace":{"recorded":9000,"dropped_ring":100,)"
      << R"("dropped_sampling":0}},)"
      << R"("overhead":{"arms":[)";
  for (int i = 0; i < 3; ++i) {
    if (i > 0) out << ",";
    out << R"({"name":")" << arms[i] << R"(","wall_seconds":)" << 1.0 + i * 0.25
        << R"(,"events_per_sec":)" << 10000.0 / (1.0 + i * 0.25)
        << R"(,"peak_rss_bytes":1048576,)"
        << R"("trace":{"recorded":)" << i * 4500
        << R"(,"dropped_ring":0,"dropped_sampling":0},)"
        << R"("phases":{"queue_ops":0.2,"auditor":0.1,"resume":0.5,)"
        << R"("tracer":)" << i * 0.1
        << R"(,"dispatch":0.2,"user_work":0.4}})";
  }
  out << "]}}\n";
  return path;
}

TEST(CliEngineStats, RendersCountersAndAblation) {
  const std::string path = write_engine_artifact("vmstorm-engine-v1");
  auto r = run_repo_cli({"engine-stats", path});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  // Header carries title, mode, and the config fingerprint.
  EXPECT_NE(r->find("engine self-telemetry"), std::string::npos);
  EXPECT_NE(r->find("quick mode"), std::string::npos);
  EXPECT_NE(r->find("0123456789abcdef"), std::string::npos);
  // Deterministic counters table.
  EXPECT_NE(r->find("events_processed"), std::string::npos);
  EXPECT_NE(r->find("trace.recorded"), std::string::npos);
  // Ablation table: all three arms, overhead relative to "off".
  EXPECT_NE(r->find("off"), std::string::npos);
  EXPECT_NE(r->find("sampled"), std::string::npos);
  EXPECT_NE(r->find("full"), std::string::npos);
  EXPECT_NE(r->find("50"), std::string::npos);  // full: (1.5-1.0)/1.0 = 50%
  std::remove(path.c_str());
}

TEST(CliEngineStats, RejectsWrongSchemaAndMissingFile) {
  const std::string path = write_engine_artifact("vmstorm-bench-v2");
  auto r = run_repo_cli({"engine-stats", path});
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.status().to_string().find("vmstorm-engine-v1"),
            std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(run_repo_cli({"engine-stats", "/nonexistent.json"}).is_ok());
  // Unparseable JSON is a clean error, not a crash.
  const std::string bad = ::testing::TempDir() + "/cli_bench_bad.json";
  std::ofstream(bad) << "{not json";
  EXPECT_FALSE(run_repo_cli({"engine-stats", bad}).is_ok());
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace vmstorm::apps
