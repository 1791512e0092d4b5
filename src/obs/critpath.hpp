// Critical-path analyzer over the span DAG recorded by obs::Tracer.
//
// The tracer's events carry causal structure: span events ('X' with id /
// parent) form a DAG rooted at per-instance VM boot / resume / snapshot
// spans, and cost events ('X' with a `span` attribution and cat "wait" or
// "svc") are the leaf intervals where simulated time is actually spent —
// disk platter service, NIC transmission, queueing behind another
// instance's request, metadata RPCs. This analyzer tiles each root span's
// [start, end) with the recorded cost intervals and attributes every
// elementary slice of wall time to exactly one bucket, so the per-bucket
// totals sum to the instance's measured deployment / snapshot time.
//
// Overlap resolution is deterministic: at any instant the winning interval
// is chosen by (kind priority, bucket rank, recording order) where genuine
// waits outrank service (a queued request costs queue time even though the
// server is busy on someone else's behalf) and join-waits rank last (a
// parent joining children is idle filler, not a resource queue). Uncovered
// time falls to `boot_init` for boot/resume roots (guest CPU work between
// I/O) and `compute` otherwise.
//
// Everything here is pure post-processing: same trace in, byte-identical
// attribution JSON out. The input is an obs::Trace: from Tracer::events()
// in process, or from a jsonl() export read back by parse_trace_jsonl()
// (obs/trace.hpp, next to the writer) for `vmstormctl critpath`; this
// module knows nothing of the file format. Events name their strings by id
// into the trace's name table, so the analyzer looks up the ids of the
// strings it tests ("wait", "svc", "sim.join", the root kinds, the
// "bucket", "holder" and "instance" arg keys, and which names start with
// "net." or "dfs.") once per trace and compares integers per event. A
// report keeps a copy of the table, so it outlives the trace.
//
// Host threads: analyze_critical_paths() builds the span index on the
// caller, then fork-joins one host thread per part of at least kCritPart
// events (common/parallel.hpp; none below two parts) to clip the cost
// events and to tile the rows. A segment keeps its index in the whole
// trace and a row's segments join in part order, so the report cannot
// depend on the thread count. The threads cost the rest of the process
// what obs/trace.hpp says.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace vmstorm::obs {

/// Where a slice of critical-path time went. Order is the schema order of
/// the `buckets` array in the attribution JSON.
enum class CritBucket {
  kBootInit = 0,   ///< uncovered time inside a boot/resume root (guest work)
  kCompute,        ///< uncovered time in other roots / unclassified service
  kLocalDisk,      ///< disk service on the instance's own node
  kMetadata,       ///< RPC round-trips under a metadata-hinted span
  kNetTransfer,    ///< NIC service, wire latency, connection setup
  kQueueWait,      ///< blocked behind another holder (disk FIFO, semaphore,
                   ///< dirty-page budget, inflight chunk, join filler)
  kRepoDisk,       ///< disk/DFS service under a repository-hinted span
};

inline constexpr std::size_t kCritBucketCount = 7;

const char* crit_bucket_name(CritBucket b);

/// One coalesced tile of a root span's critical path.
struct CritSegment {
  double start = 0;
  double seconds = 0;
  CritBucket bucket = CritBucket::kCompute;
  NameId name = 0;   ///< winning event's name in CritReport::names; 0 ("")
                     ///< for filler time
  SpanId holder = 0;  ///< wait tiles: span that held the resource
};

/// Per-root attribution: one VM instance deployment (kind "boot"),
/// resumed instance ("resume"), or snapshot ("snapshot").
struct CritRow {
  std::string kind;
  std::uint64_t instance = 0;
  std::uint32_t lane = 0;
  SpanId span = 0;
  double start = 0;
  double seconds = 0;
  std::array<double, kCritBucketCount> buckets{};
  std::vector<CritSegment> segments;
};

struct CritReport {
  NameTable names;  ///< the analyzed trace's, copied
  std::vector<CritRow> rows;
  std::uint64_t spans_seen = 0;
  std::uint64_t cost_events = 0;
};

/// Trace events per analyzer part: a trace under two parts is analyzed on
/// the caller's thread alone.
inline constexpr std::size_t kCritPart = std::size_t{1} << 13;

/// Walks the span DAG and tiles every root span with cost intervals. The
/// span index is built on the caller; then k = part_count(events, kCritPart)
/// threads (common/parallel.hpp) clip and classify the cost events of one
/// index range each into per-row lists, and tile a range of rows each, a
/// row's lists joined in range order. The `parts` overload fixes k
/// (clamped to [1, events]) for tests; every k gives the same report.
CritReport analyze_critical_paths(const Trace& trace);
CritReport analyze_critical_paths(const Trace& trace, std::size_t parts);

/// Deterministic JSON for the bench artifact `attribution` section
/// (schema vmstorm-bench-v2): bucket names, per-row breakdowns, and a
/// per-kind summary. Buckets of each row sum to its `seconds`.
std::string attribution_json(const CritReport& report);

/// Human-readable tables: per-kind summary, per-instance breakdown, and
/// the slowest instance's largest critical-path segments.
std::string attribution_table(const CritReport& report);

}  // namespace vmstorm::obs
