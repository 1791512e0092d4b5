// Critical-path analyzer tests: an exact hand-built span DAG (known
// critical path, known bucket totals), classification corner cases, and an
// end-to-end contention scenario — two VMs fetching the same image range
// from a single-provider repository — asserting bucket-sum closure,
// same-seed byte-identical attribution JSON, and that the JSONL round trip
// (what `vmstormctl critpath` consumes) reproduces the in-process analysis.
#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "blob/sim_cluster.hpp"
#include "blob/store.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mirror/sim_disk.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/causal.hpp"
#include "sim/engine.hpp"
#include "storage/disk.hpp"
#include "util/bench_util.hpp"

namespace vmstorm {
namespace {

double bucket_of(const obs::CritRow& row, obs::CritBucket b) {
  return row.buckets[static_cast<std::size_t>(b)];
}

double bucket_sum(const obs::CritRow& row) {
  return std::accumulate(row.buckets.begin(), row.buckets.end(), 0.0);
}

// Root boot span [0, 10):
//   [0, 4)  NIC service           -> net_transfer
//   [4, 7)  disk queue wait       -> queue_wait (outranks the overlapping
//                                    service below in [6, 7))
//   [6, 9)  disk service under a repo-hinted child span -> repo_disk in
//                                    the uncontested [7, 9)
//   [9, 10) uncovered             -> boot_init filler
// Returns the root's span id.
obs::SpanId record_hand_built_path(obs::Tracer& t) {
  t.set_enabled(true);
  const obs::SpanId root = t.new_span();
  const obs::SpanId child = t.new_span();
  t.complete_in(0.0, 4.0, 0, "svc", "net.tx", root);
  t.complete_in(4.0, 3.0, 0, "wait", "disk", root,
                {obs::TraceArg::uint("holder", 42)});
  t.complete_in(6.0, 3.0, 0, "svc", "disk", child);
  t.complete_span(6.0, 3.0, 0, "blob", "fetch", child, root,
                  {obs::TraceArg::str("bucket", "repo")});
  t.complete_span(0.0, 10.0, 0, "vm", "boot", root, 0,
                  {obs::TraceArg::uint("instance", 7)});
  return root;
}

TEST(Critpath, ExactHandBuiltPath) {
  obs::Tracer t;
  const obs::SpanId root = record_hand_built_path(t);

  const obs::CritReport report = obs::analyze_critical_paths(t.events());
  ASSERT_EQ(report.rows.size(), 1u);
  const obs::CritRow& row = report.rows[0];
  EXPECT_EQ(row.kind, "boot");
  EXPECT_EQ(row.instance, 7u);
  EXPECT_EQ(row.span, root);
  EXPECT_DOUBLE_EQ(row.seconds, 10.0);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kNetTransfer), 4.0);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kQueueWait), 3.0);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kRepoDisk), 2.0);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kBootInit), 1.0);
  EXPECT_DOUBLE_EQ(bucket_sum(row), row.seconds);

  // The exact critical path, in order, with the wait's holder preserved.
  const auto name = [&report](const obs::CritSegment& seg) {
    return report.names.str(seg.name);
  };
  ASSERT_EQ(row.segments.size(), 4u);
  EXPECT_EQ(name(row.segments[0]), "net.tx");
  EXPECT_EQ(row.segments[0].bucket, obs::CritBucket::kNetTransfer);
  EXPECT_DOUBLE_EQ(row.segments[0].seconds, 4.0);
  EXPECT_EQ(name(row.segments[1]), "disk");
  EXPECT_EQ(row.segments[1].bucket, obs::CritBucket::kQueueWait);
  EXPECT_DOUBLE_EQ(row.segments[1].seconds, 3.0);
  EXPECT_EQ(row.segments[1].holder, 42u);
  EXPECT_EQ(name(row.segments[2]), "disk");
  EXPECT_EQ(row.segments[2].bucket, obs::CritBucket::kRepoDisk);
  EXPECT_DOUBLE_EQ(row.segments[2].seconds, 2.0);
  EXPECT_EQ(row.segments[3].bucket, obs::CritBucket::kBootInit);
  EXPECT_DOUBLE_EQ(row.segments[3].seconds, 1.0);
  EXPECT_EQ(name(row.segments[3]), "");
}

TEST(Critpath, ReportOutlivesItsTrace) {
  // The report keeps its own copy of the name table: rendering it after
  // the trace is gone reads no freed string (the asan preset checks).
  obs::Tracer t;
  record_hand_built_path(t);
  auto trace = std::make_unique<obs::Trace>(t.events());
  t.clear();
  const obs::CritReport report = obs::analyze_critical_paths(*trace);
  const std::string before = obs::attribution_table(report);
  trace.reset();
  const std::string table = obs::attribution_table(report);
  EXPECT_EQ(table, before);
  for (const char* name : {"net.tx", "disk", "(uncovered)"}) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
}

TEST(Critpath, SnapshotRootFillsUncoveredAsCompute) {
  obs::Tracer t;
  t.set_enabled(true);
  const obs::SpanId root = t.new_span();
  t.complete_in(0.0, 1.0, 5, "svc", "disk", root);
  t.complete_span(0.0, 2.0, 5, "cloud", "snapshot", root, 0,
                  {obs::TraceArg::uint("instance", 3)});
  const obs::CritReport report = obs::analyze_critical_paths(t.events());
  ASSERT_EQ(report.rows.size(), 1u);
  const obs::CritRow& row = report.rows[0];
  EXPECT_EQ(row.kind, "snapshot");
  EXPECT_EQ(row.instance, 3u);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kLocalDisk), 1.0);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kCompute), 1.0);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kBootInit), 0.0);
}

TEST(Critpath, MetadataHintBeatsNetPrefix) {
  // A NIC service interval under a metadata-hinted RPC span is metadata
  // time: the hint says what the wire time was *for*.
  obs::Tracer t;
  t.set_enabled(true);
  const obs::SpanId root = t.new_span();
  const obs::SpanId rpc = t.new_span();
  t.complete_in(0.0, 2.0, 0, "svc", "net.tx", rpc);
  t.complete_span(0.0, 2.0, 0, "net", "rpc", rpc, root,
                  {obs::TraceArg::str("bucket", "metadata")});
  t.complete_span(0.0, 5.0, 0, "vm", "boot", root, 0,
                  {obs::TraceArg::uint("instance", 0)});
  const obs::CritReport report = obs::analyze_critical_paths(t.events());
  ASSERT_EQ(report.rows.size(), 1u);
  const obs::CritRow& row = report.rows[0];
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kMetadata), 2.0);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kNetTransfer), 0.0);
  EXPECT_DOUBLE_EQ(bucket_of(row, obs::CritBucket::kBootInit), 3.0);
}

TEST(Critpath, BackgroundWorkOutsideAnySpanIsIgnored) {
  obs::Tracer t;
  t.set_enabled(true);
  const obs::SpanId root = t.new_span();
  t.complete_in(0.0, 1.0, 0, "svc", "disk", root);
  // span 0 = detached background work (e.g. the write-back flusher).
  t.complete_in(0.0, 5.0, 0, "svc", "disk", 0);
  t.complete_span(0.0, 2.0, 0, "vm", "boot", root, 0);
  const obs::CritReport report = obs::analyze_critical_paths(t.events());
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(bucket_of(report.rows[0], obs::CritBucket::kLocalDisk), 1.0);
  EXPECT_DOUBLE_EQ(bucket_sum(report.rows[0]), 2.0);
}

// --- end-to-end contention scenario ---------------------------------------

sim::Task<void> traced_boot(sim::Engine* engine, mirror::SimVirtualDisk* disk,
                            std::uint64_t instance, std::uint32_t lane) {
  sim::SpanScope span(*engine);
  co_await disk->read(0, 512_KiB);
  if (span) {
    span.finish(lane, "vm", "boot",
                {obs::TraceArg::uint("instance", instance)});
  }
}

struct ScenarioOut {
  obs::CritReport report;
  std::string attribution;
  std::string jsonl;
};

// Two VMs on nodes 2 and 3 concurrently fetch the same 512 KiB from a
// repository with a single provider (node 0): the provider's disk and NIC
// serialize the fetches, so one VM's critical path shows queue wait held by
// the other's spans.
ScenarioOut run_contention_scenario() {
  sim::Engine engine;
  obs::Recorder rec;
  engine.set_recorder(&rec);
  rec.trace.set_enabled(true);

  net::Network network(engine, 4);
  storage::Disk provider_disk(engine);
  provider_disk.set_trace_lane(0);
  storage::Disk local_a(engine);
  storage::Disk local_b(engine);
  local_a.set_trace_lane(2);
  local_b.set_trace_lane(3);

  blob::StoreConfig sc;
  sc.providers = 1;
  blob::BlobStore store(sc);
  blob::SimCluster cluster(engine, network, store,
                           std::vector<net::NodeId>{0},
                           std::vector<storage::Disk*>{&provider_disk},
                           /*manager_node=*/1);
  auto blob_id = store.create(2_MiB, 256_KiB);
  EXPECT_TRUE(blob_id.is_ok());
  auto version = store.write_pattern(*blob_id, 0, 0, 2_MiB, 77);
  EXPECT_TRUE(version.is_ok());

  mirror::MirrorConfig mc;
  mc.image_size = 2_MiB;
  mc.chunk_size = 256_KiB;
  mirror::SimVirtualDisk vm_a(cluster, 2, local_a, *blob_id, *version, mc, 1);
  mirror::SimVirtualDisk vm_b(cluster, 3, local_b, *blob_id, *version, mc, 2);

  engine.spawn(traced_boot(&engine, &vm_a, 0, 2));
  engine.spawn(traced_boot(&engine, &vm_b, 1, 3));
  engine.run();

  ScenarioOut out;
  out.report = obs::analyze_critical_paths(rec.trace.events());
  out.attribution = obs::attribution_json(out.report);
  out.jsonl = rec.trace.jsonl();
  return out;
}

TEST(Critpath, TwoVmsContendingOnOneProviderDisk) {
  const ScenarioOut out = run_contention_scenario();
  ASSERT_EQ(out.report.rows.size(), 2u);
  double total_wait = 0;
  for (const obs::CritRow& row : out.report.rows) {
    EXPECT_EQ(row.kind, "boot");
    EXPECT_GT(row.seconds, 0.0);
    EXPECT_NEAR(bucket_sum(row), row.seconds, 1e-9);
    // Remote fetch work must show up: repo-hinted disk time, wire time,
    // and the locate RPC's metadata time.
    EXPECT_GT(bucket_of(row, obs::CritBucket::kNetTransfer), 0.0);
    EXPECT_GT(bucket_of(row, obs::CritBucket::kMetadata), 0.0);
    total_wait += bucket_of(row, obs::CritBucket::kQueueWait);
  }
  EXPECT_GT(out.report.rows[0].buckets[static_cast<std::size_t>(
                obs::CritBucket::kRepoDisk)] +
                out.report.rows[1].buckets[static_cast<std::size_t>(
                    obs::CritBucket::kRepoDisk)],
            0.0);
  // A single provider serializes the two fetch streams: somebody waited.
  EXPECT_GT(total_wait, 0.0);
}

TEST(Critpath, SameSeedByteIdenticalAttribution) {
  const ScenarioOut a = run_contention_scenario();
  const ScenarioOut b = run_contention_scenario();
  EXPECT_FALSE(a.attribution.empty());
  EXPECT_EQ(a.attribution, b.attribution);
  EXPECT_EQ(a.jsonl, b.jsonl);
}

TEST(Critpath, JsonlRoundTripMatchesInProcessAnalysis) {
  const ScenarioOut out = run_contention_scenario();
  auto parsed = obs::parse_trace_jsonl(out.jsonl);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_FALSE(parsed->events.empty());
  const obs::CritReport reparsed = obs::analyze_critical_paths(*parsed);
  EXPECT_EQ(reparsed.rows.size(), out.report.rows.size());
  EXPECT_EQ(obs::attribution_json(reparsed), out.attribution);
}

TEST(Critpath, PaperRunRoundTripsAtEveryPartCount) {
  // perfbench's paper_ours_traced run cut to 16 VMs: the §5.1 testbed
  // config with the boot trace at a quarter of its volume, traced.
  const std::size_t vms = 16;
  vm::BootTraceParams tp = bench::paper_boot_params();
  tp.read_volume /= 4;
  tp.write_volume /= 4;
  tp.cpu_seconds /= 4;
  cloud::Cloud c(bench::paper_cloud_config(vms), cloud::Strategy::kOurs);
  c.obs().trace.set_enabled(true);
  c.multideploy(vms, tp);
  ASSERT_TRUE(c.multisnapshot().is_ok());
  const obs::Trace recorded = c.obs().trace.events();
  const std::string jsonl = c.trace_jsonl();
  ASSERT_GE(jsonl.size(), 4 * obs::kParsePart);
  const std::string want = obs::attribution_json(
      obs::analyze_critical_paths(recorded));
  for (std::size_t parts : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE(std::to_string(parts) + " parts");
    auto parsed = obs::parse_trace_jsonl(jsonl, parts);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    // The reader numbers strings as the tracer interned them, so the
    // events, args and tables are equal field by field.
    ASSERT_EQ(parsed->names.size(), recorded.names.size());
    for (obs::NameId id = 0; id < recorded.names.size(); ++id) {
      ASSERT_EQ(parsed->names.str(id), recorded.names.str(id)) << id;
    }
    ASSERT_EQ(parsed->events.size(), recorded.events.size());
    for (std::size_t i = 0; i < recorded.events.size(); ++i) {
      const obs::TraceEvent& g = parsed->events[i];
      const obs::TraceEvent& w = recorded.events[i];
      ASSERT_TRUE(g.ts == w.ts && g.dur == w.dur && g.id == w.id &&
                  g.parent == w.parent && g.span == w.span &&
                  g.lane == w.lane && g.cat == w.cat && g.name == w.name &&
                  g.args_at == w.args_at && g.arg_count == w.arg_count &&
                  g.phase == w.phase)
          << "event " << i;
    }
    ASSERT_EQ(parsed->args.size(), recorded.args.size());
    for (std::size_t a = 0; a < recorded.args.size(); ++a) {
      const obs::TraceArg& g = parsed->args[a];
      const obs::TraceArg& w = recorded.args[a];
      ASSERT_TRUE(g.key == w.key && g.kind == w.kind && g.s == w.s &&
                  g.u == w.u && g.d == w.d)
          << "arg " << a;
    }
    EXPECT_EQ(obs::attribution_json(obs::analyze_critical_paths(*parsed)),
              want);
  }
}

TEST(Critpath, AttributionTableRendersAllBuckets) {
  const ScenarioOut out = run_contention_scenario();
  const std::string table = obs::attribution_table(out.report);
  for (std::size_t b = 0; b < obs::kCritBucketCount; ++b) {
    EXPECT_NE(table.find(obs::crit_bucket_name(
                  static_cast<obs::CritBucket>(b))),
              std::string::npos);
  }
  EXPECT_NE(table.find("boot"), std::string::npos);
}

TEST(Critpath, ParentCycleTerminates) {
  // Hand-written input: spans 1 and 2 name each other as parent. The tracer
  // always allocates a parent's id before its child's, so a parent id that
  // is not smaller counts as no parent: neither span reaches a root, and
  // the cost under span 1 is left out instead of chasing the cycle.
  auto parsed = obs::parse_trace_jsonl(
      R"({"name":"boot","cat":"vm","ph":"X","ts":0,"dur":2,"lane":0,"id":3})"
      "\n"
      R"({"name":"a","cat":"blob","ph":"X","ts":0,"dur":1,"lane":0,"id":1,"parent":2})"
      "\n"
      R"({"name":"b","cat":"blob","ph":"X","ts":0,"dur":1,"lane":0,"id":2,"parent":1})"
      "\n"
      R"({"name":"disk","cat":"svc","ph":"X","ts":0,"dur":1,"lane":0,"span":1})"
      "\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::CritReport report = obs::analyze_critical_paths(*parsed);
  EXPECT_EQ(report.spans_seen, 3u);
  EXPECT_EQ(report.cost_events, 1u);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(bucket_of(report.rows[0], obs::CritBucket::kBootInit), 2.0);
}

TEST(Critpath, RepeatedSpanIdKeepsItsRootRowAndTakesTheLastHint) {
  // Hand-written input that records span 5 twice: first as a vm/boot root,
  // then as a child of root 2 with a repo hint. The root's row sticks, and
  // the last record's hint applies: the disk service under span 5 is repo
  // time in span 5's own row. Span 7 is recorded under 5 with a repo hint,
  // then under 2 with none: the last parent and the last (absent) hint win,
  // so its disk service is local disk time in root 2's row.
  auto parsed = obs::parse_trace_jsonl(
      R"({"name":"boot","cat":"vm","ph":"X","ts":0,"dur":10,"lane":0,"id":5})"
      "\n"
      R"({"name":"boot","cat":"vm","ph":"X","ts":0,"dur":10,"lane":1,"id":2})"
      "\n"
      R"({"name":"fetch","cat":"blob","ph":"X","ts":1,"dur":3,"lane":0,)"
      R"("id":5,"parent":2,"args":{"bucket":"repo"}})"
      "\n"
      R"({"name":"disk","cat":"svc","ph":"X","ts":1,"dur":2,"lane":0,"span":5})"
      "\n"
      R"({"name":"fetch","cat":"blob","ph":"X","ts":5,"dur":2,"lane":1,)"
      R"("id":7,"parent":5,"args":{"bucket":"repo"}})"
      "\n"
      R"({"name":"fetch","cat":"blob","ph":"X","ts":5,"dur":2,"lane":1,)"
      R"("id":7,"parent":2})"
      "\n"
      R"({"name":"disk","cat":"svc","ph":"X","ts":5,"dur":1,"lane":1,"span":7})"
      "\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::CritReport report = obs::analyze_critical_paths(*parsed);
  EXPECT_EQ(report.spans_seen, 5u);
  EXPECT_EQ(report.cost_events, 2u);
  ASSERT_EQ(report.rows.size(), 2u);
  const obs::CritRow& own = report.rows[0];  // instance 0: lane 0
  EXPECT_EQ(own.span, 5u);
  EXPECT_DOUBLE_EQ(bucket_of(own, obs::CritBucket::kRepoDisk), 2.0);
  EXPECT_DOUBLE_EQ(bucket_of(own, obs::CritBucket::kBootInit), 8.0);
  const obs::CritRow& other = report.rows[1];
  EXPECT_EQ(other.span, 2u);
  EXPECT_DOUBLE_EQ(bucket_of(other, obs::CritBucket::kLocalDisk), 1.0);
  EXPECT_DOUBLE_EQ(bucket_of(other, obs::CritBucket::kBootInit), 9.0);
}

/// 60,448 events: 48 roots (boots, resumes, snapshots), 400 child spans
/// under earlier spans, some with a bucket hint, and 60,000 cost events
/// under random spans (a few unknown), recorded in shuffled order so every
/// root's costs are spread over every part. Times sit on a 10 ms grid, so
/// many segments of one bucket start and end together and recording order
/// breaks the tie.
obs::Trace shuffled_trace() {
  constexpr std::size_t kRoots = 48;
  constexpr std::size_t kChildren = 400;
  constexpr std::size_t kCosts = 60000;
  enum class Arg { kNone, kInstance, kRepo, kMetadata, kHolder };
  struct Event {
    double ts = 0;
    double dur = 0;
    std::uint32_t lane = 0;
    obs::SpanId id = 0;  ///< a span's own id; 0 for a cost event
    obs::SpanId parent = 0;
    obs::SpanId span = 0;
    const char* cat = "";
    const char* name = "";
    Arg arg = Arg::kNone;
    std::uint64_t value = 0;  ///< kInstance's or kHolder's
  };
  Rng rng(2011);
  const auto grid = [&rng](std::uint64_t steps) {
    return static_cast<double>(rng.uniform_u64(steps)) * 0.01;
  };
  std::vector<Event> events;
  for (std::size_t r = 0; r < kRoots; ++r) {
    Event& ev = events.emplace_back();
    ev.id = r + 1;
    ev.lane = static_cast<std::uint32_t>(r % 5);
    ev.ts = grid(100);
    ev.dur = 0.5 + grid(200);
    ev.cat = r % 3 == 2 ? "cloud" : "vm";
    ev.name = r % 3 == 0 ? "boot" : r % 3 == 1 ? "resume" : "snapshot";
    ev.arg = Arg::kInstance;
    ev.value = r / 3;
  }
  for (std::size_t c = 0; c < kChildren; ++c) {
    Event& ev = events.emplace_back();
    ev.id = kRoots + 1 + c;
    ev.parent = 1 + rng.uniform_u64(kRoots + c);
    ev.ts = grid(300);
    ev.dur = grid(50);
    ev.cat = "blob";
    ev.name = "fetch";
    switch (rng.uniform_u64(3)) {
      case 0: ev.arg = Arg::kRepo; break;
      case 1: ev.arg = Arg::kMetadata; break;
      default: break;
    }
  }
  static constexpr const char* kNames[] = {"disk", "net.tx", "dfs.read",
                                           "rpc",  "sim.join", "sem"};
  for (std::size_t i = 0; i < kCosts; ++i) {
    Event& ev = events.emplace_back();
    ev.cat = rng.bernoulli(0.4) ? "wait" : "svc";
    ev.name = kNames[rng.uniform_u64(std::size(kNames))];
    ev.span = 1 + rng.uniform_u64(kRoots + kChildren + 8);
    ev.ts = grid(350);
    ev.dur = 0.01 + grid(30);
    if (rng.bernoulli(0.5)) {
      ev.arg = Arg::kHolder;
      ev.value = rng.uniform_u64(50);
    }
  }
  for (std::size_t i = events.size() - 1; i > 0; --i) {
    std::swap(events[i], events[rng.uniform_u64(i + 1)]);
  }
  obs::Tracer t;
  t.set_enabled(true);
  for (const Event& ev : events) {
    const auto record = [&](obs::TraceArgs args) {
      if (ev.id != 0) {
        t.complete_span(ev.ts, ev.dur, ev.lane, ev.cat, ev.name, ev.id,
                        ev.parent, args);
      } else {
        t.complete_in(ev.ts, ev.dur, ev.lane, ev.cat, ev.name, ev.span, args);
      }
    };
    switch (ev.arg) {
      case Arg::kNone: record({}); break;
      case Arg::kInstance:
        record({obs::TraceArg::uint("instance", ev.value)});
        break;
      case Arg::kRepo: record({obs::TraceArg::str("bucket", "repo")}); break;
      case Arg::kMetadata:
        record({obs::TraceArg::str("bucket", "metadata")});
        break;
      case Arg::kHolder:
        record({obs::TraceArg::uint("holder", ev.value)});
        break;
    }
  }
  return t.events();
}

TEST(Critpath, EveryPartCountGivesTheSameAttribution) {
  const obs::Trace events = shuffled_trace();
  ASSERT_GE(events.events.size(), 7 * obs::kCritPart);
  const obs::CritReport want = obs::analyze_critical_paths(events, 1);
  ASSERT_EQ(want.rows.size(), 48u);
  const std::string json = obs::attribution_json(want);
  const std::string table = obs::attribution_table(want);
  for (std::size_t parts : {0, 2, 3, 7}) {
    SCOPED_TRACE(parts == 0 ? std::string("automatic part count")
                            : std::to_string(parts) + " parts");
    const obs::CritReport got =
        parts == 0 ? obs::analyze_critical_paths(events)
                   : obs::analyze_critical_paths(events, parts);
    EXPECT_EQ(obs::attribution_json(got), json);
    EXPECT_EQ(obs::attribution_table(got), table);
    EXPECT_EQ(got.spans_seen, want.spans_seen);
    EXPECT_EQ(got.cost_events, want.cost_events);
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (std::size_t r = 0; r < want.rows.size(); ++r) {
      const auto& g = got.rows[r].segments;
      const auto& w = want.rows[r].segments;
      ASSERT_EQ(g.size(), w.size()) << "row " << r;
      for (std::size_t i = 0; i < w.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(r) + " segment " +
                     std::to_string(i));
        EXPECT_EQ(g[i].start, w[i].start);
        EXPECT_EQ(g[i].seconds, w[i].seconds);
        EXPECT_EQ(g[i].bucket, w[i].bucket);
        EXPECT_EQ(g[i].name, w[i].name);
        EXPECT_EQ(g[i].holder, w[i].holder);
      }
    }
  }
}

TEST(Critpath, EmptyTraceYieldsEmptyReport) {
  const obs::CritReport report = obs::analyze_critical_paths({});
  EXPECT_TRUE(report.rows.empty());
  EXPECT_NE(obs::attribution_table(report).find("no root spans"),
            std::string::npos);
}

}  // namespace
}  // namespace vmstorm
