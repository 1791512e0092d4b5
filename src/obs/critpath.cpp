#include "obs/critpath.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <tuple>
#include <utility>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"

namespace vmstorm::obs {

namespace {

constexpr const char* kBucketNames[kCritBucketCount] = {
    "boot_init", "compute",    "local_disk", "metadata",
    "net_transfer", "queue_wait", "repo_disk",
};

/// Ancestor hint propagated down the span DAG via the "bucket" span arg.
enum class Hint { kNone = 0, kMetadata, kRepo };

/// One entry of the flat span index: a span's parent, its root row (-1:
/// none) and its effective hint, the nearest one on its chain up to that
/// root.
struct SpanInfo {
  SpanId id = 0;
  SpanId parent = 0;
  int row = -1;
  Hint hint = Hint::kNone;
};

/// The index entry for `id` in `spans` (sorted by id, one entry per id),
/// or null.
const SpanInfo* find_span(const std::vector<SpanInfo>& spans, SpanId id) {
  const auto it = std::lower_bound(
      spans.begin(), spans.end(), id,
      [](const SpanInfo& s, SpanId key) { return s.id < key; });
  return it != spans.end() && it->id == id ? &*it : nullptr;
}

/// The ids of the strings the analyzer tests, looked up once per trace:
/// kNoName for one the trace lacks, which no event carries.
struct Ids {
  explicit Ids(const NameTable& names)
      : wait(names.find("wait")),
        svc(names.find("svc")),
        sim_join(names.find("sim.join")),
        disk(names.find("disk")),
        vm(names.find("vm")),
        boot(names.find("boot")),
        resume(names.find("resume")),
        cloud(names.find("cloud")),
        snapshot(names.find("snapshot")),
        bucket(names.find("bucket")),
        metadata(names.find("metadata")),
        repo(names.find("repo")),
        holder(names.find("holder")),
        instance(names.find("instance")),
        prefix(names.size(), kOther) {
    for (NameId id = 0; id < prefix.size(); ++id) {
      const std::string_view name = names.str(id);
      if (name.starts_with("net.")) prefix[id] = kNet;
      if (name.starts_with("dfs.")) prefix[id] = kDfs;
    }
  }

  enum Prefix : std::uint8_t { kOther, kNet, kDfs };

  NameId wait, svc, sim_join, disk;       ///< cost event cats and names
  NameId vm, boot, resume, cloud, snapshot;  ///< root span cats and names
  NameId bucket, metadata, repo;          ///< the span hint arg and values
  NameId holder, instance;                ///< other arg keys
  std::vector<Prefix> prefix;             ///< by name id
};

/// The first of `ev`'s args keyed `key`, or null.
const TraceArg* find_arg(const Trace& trace, const TraceEvent& ev,
                         NameId key) {
  for (const TraceArg& a : trace.args_of(ev)) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

bool is_root_span(const TraceEvent& ev, const Ids& ids) {
  if (ev.phase != 'X' || ev.id == 0 || ev.dur < 0) return false;
  if (ev.cat == ids.vm) return ev.name == ids.boot || ev.name == ids.resume;
  return ev.cat == ids.cloud && ev.name == ids.snapshot;
}

/// One clipped cost interval competing for critical-path time.
struct Seg {
  double t0 = 0;
  double t1 = 0;
  int priority = 0;  ///< 0 = resource wait, 1 = service, 2 = join filler
  int bucket = 0;
  std::size_t index = 0;  ///< recording order, final tie-break
  NameId name = 0;
  SpanId holder = 0;
};

/// Buckets a cost event given the effective hint of its span chain. Waits
/// are queue time no matter the resource; service time splits by what the
/// span chain says the work was for.
void classify(const TraceEvent& ev, const Ids& ids, Hint hint, int* priority,
              CritBucket* bucket) {
  if (ev.cat == ids.wait) {
    *bucket = CritBucket::kQueueWait;
    *priority = ev.name == ids.sim_join ? 2 : 0;
    return;
  }
  *priority = 1;
  const Ids::Prefix prefix = ids.prefix[ev.name];
  if (hint == Hint::kMetadata) {
    *bucket = CritBucket::kMetadata;
  } else if (prefix == Ids::kNet) {
    *bucket = CritBucket::kNetTransfer;
  } else if (hint == Hint::kRepo) {
    *bucket = CritBucket::kRepoDisk;
  } else if (ev.name == ids.disk || prefix == Ids::kDfs) {
    *bucket = CritBucket::kLocalDisk;
  } else {
    *bucket = CritBucket::kCompute;
  }
}

/// Tiles row.[start, start+seconds) with `segs`, accumulating bucket totals
/// and the coalesced winning-segment sequence. At any instant the winner is
/// the live segment with the smallest (priority, bucket, index); gaps fall
/// to `filler`. Both are built in locals and stored in *row once, so rows
/// tiled on different threads share no cache line while they are built.
void sweep(CritRow* row, const std::vector<Seg>& segs, CritBucket filler) {
  // Each segment opens at t0 and closes at t1. Walking the edges in time
  // order visits every slice between distinct bounds exactly once.
  struct Edge {
    double t;
    const Seg* seg;
    bool opens;
  };
  std::vector<Edge> edges;
  edges.reserve(segs.size() * 2);
  for (const Seg& s : segs) {
    edges.push_back({s.t0, &s, true});
    edges.push_back({s.t1, &s, false});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  // Live segments, best first. Keys are unique (index is), so the order in
  // which one bound's edges apply does not matter.
  const auto rank = [](const Seg* a, const Seg* b) {
    return std::tie(a->priority, a->bucket, a->index) <
           std::tie(b->priority, b->bucket, b->index);
  };
  std::vector<const Seg*> live;
  std::array<double, kCritBucketCount> buckets{};
  std::vector<CritSegment> segments;
  const auto tile = [&](double from, double to) {
    const double width = to - from;
    const Seg* win = live.empty() ? nullptr : live.front();
    const CritBucket bucket =
        win != nullptr ? static_cast<CritBucket>(win->bucket) : filler;
    buckets[static_cast<std::size_t>(bucket)] += width;
    const NameId name = win != nullptr ? win->name : 0;
    const SpanId holder = win != nullptr ? win->holder : 0;
    if (!segments.empty()) {
      CritSegment& last = segments.back();
      if (last.bucket == bucket && last.name == name &&
          last.holder == holder) {
        last.seconds += width;
        return;
      }
    }
    CritSegment seg;
    seg.start = from;
    seg.seconds = width;
    seg.bucket = bucket;
    seg.name = name;
    seg.holder = holder;
    segments.push_back(seg);
  };

  double at = row->start;
  for (const Edge& e : edges) {
    if (e.t > at) {
      tile(at, e.t);
      at = e.t;
    }
    const auto pos = std::lower_bound(live.begin(), live.end(), e.seg, rank);
    if (e.opens) {
      live.insert(pos, e.seg);
    } else {
      live.erase(pos);
    }
  }
  const double end = row->start + row->seconds;
  if (end > at) tile(at, end);
  row->buckets = buckets;
  row->segments = std::move(segments);
}

}  // namespace

const char* crit_bucket_name(CritBucket b) {
  return kBucketNames[static_cast<std::size_t>(b)];
}

CritReport analyze_critical_paths(const Trace& trace) {
  return analyze_critical_paths(trace,
                                part_count(trace.events.size(), kCritPart));
}

CritReport analyze_critical_paths(const Trace& trace, std::size_t parts) {
  const auto& events = trace.events;
  parts = std::clamp<std::size_t>(parts, 1,
                                  std::max<std::size_t>(events.size(), 1));
  const Ids ids(trace.names);
  CritReport report;
  report.names = trace.names;

  // Pass 1: one index entry per span event, and the root rows.
  std::vector<SpanInfo> spans;
  for (const TraceEvent& ev : events) {
    if (ev.phase != 'X' || ev.id == 0) continue;
    SpanInfo& info = spans.emplace_back();
    info.id = ev.id;
    info.parent = ev.parent;
    if (const TraceArg* a = find_arg(trace, ev, ids.bucket)) {
      if (a->s == ids.metadata) info.hint = Hint::kMetadata;
      if (a->s == ids.repo) info.hint = Hint::kRepo;
    }
    ++report.spans_seen;
    if (!is_root_span(ev, ids)) continue;
    CritRow row;
    row.kind = trace.str(ev.name);
    row.lane = ev.lane;
    row.span = ev.id;
    row.start = ev.ts;
    row.seconds = ev.dur;
    const TraceArg* inst = find_arg(trace, ev, ids.instance);
    row.instance = inst != nullptr ? inst->u : ev.lane;
    info.row = static_cast<int>(report.rows.size());
    report.rows.push_back(std::move(row));
  }

  // Order by (id, recording order) and fold each repeated id into one
  // entry: the last event's parent and hint win, and the last root row
  // among them sticks.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanInfo& a, const SpanInfo& b) {
                     return a.id < b.id;
                   });
  std::size_t unique = 0;
  for (const SpanInfo& info : spans) {
    if (unique > 0 && spans[unique - 1].id == info.id) {
      SpanInfo& folded = spans[unique - 1];
      folded.parent = info.parent;
      folded.hint = info.hint;
      if (info.row >= 0) folded.row = info.row;
    } else {
      spans[unique++] = info;
    }
  }
  spans.erase(spans.begin() + static_cast<std::ptrdiff_t>(unique),
              spans.end());

  // Pass 2: resolve each span to its root row and effective hint in one
  // ascending-id pass. The tracer allocates a parent's id before its
  // child's, so the parent is already resolved; a parent id that is not
  // smaller (only possible in hand-written input) counts as no parent.
  for (SpanInfo& info : spans) {
    if (info.row >= 0 || info.parent == 0 || info.parent >= info.id) continue;
    const SpanInfo* parent = find_span(spans, info.parent);
    if (parent == nullptr) continue;  // unknown span: no root, no hint
    info.row = parent->row;
    if (info.hint == Hint::kNone) info.hint = parent->hint;
  }

  // Pass 3: each part clips the cost events of its index range into its
  // roots' windows, one list per row.
  struct Clipped {
    std::vector<std::vector<Seg>> per_row;
    std::uint64_t cost_events = 0;
  };
  std::vector<Clipped> clipped(parts);
  fork_join(parts, [&](std::size_t p) {
    const PartRange range = part_range(events.size(), parts, p);
    std::vector<std::vector<Seg>> per_row(report.rows.size());
    std::uint64_t cost_events = 0;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const TraceEvent& ev = events[i];
      if (ev.phase != 'X' || ev.dur <= 0) continue;
      if (ev.cat != ids.wait && ev.cat != ids.svc) continue;
      if (ev.span == 0) continue;
      ++cost_events;
      const SpanInfo* res = find_span(spans, ev.span);
      if (res == nullptr || res->row < 0) {
        continue;  // background or phase-level work
      }
      const CritRow& row = report.rows[static_cast<std::size_t>(res->row)];
      Seg seg;
      seg.t0 = std::max(ev.ts, row.start);
      seg.t1 = std::min(ev.ts + ev.dur, row.start + row.seconds);
      if (seg.t1 <= seg.t0) continue;
      seg.index = i;
      seg.name = ev.name;
      int priority = 0;
      CritBucket bucket = CritBucket::kCompute;
      classify(ev, ids, res->hint, &priority, &bucket);
      seg.priority = priority;
      seg.bucket = static_cast<int>(bucket);
      if (const TraceArg* holder = find_arg(trace, ev, ids.holder)) {
        seg.holder = holder->u;
      }
      per_row[static_cast<std::size_t>(res->row)].push_back(seg);
    }
    clipped[p].per_row = std::move(per_row);
    clipped[p].cost_events = cost_events;
  });
  for (const Clipped& c : clipped) report.cost_events += c.cost_events;

  // Pass 4: tile each root. Each part takes the next untiled row until
  // none is left: rows differ widely in cost, so fixed ranges of rows would
  // leave parts idle. A row's segments are the parts' lists joined in part
  // order, which is recording order. Uncovered time in a boot/resume is the
  // guest actually booting; elsewhere it is generic compute.
  const std::size_t tile_parts =
      std::clamp<std::size_t>(report.rows.size(), 1, parts);
  std::atomic<std::size_t> next_row{0};
  fork_join(tile_parts, [&](std::size_t) {
    std::vector<Seg> segs;
    for (std::size_t r = next_row++; r < report.rows.size(); r = next_row++) {
      segs.clear();
      for (const Clipped& c : clipped) {
        segs.insert(segs.end(), c.per_row[r].begin(), c.per_row[r].end());
      }
      CritRow& row = report.rows[r];
      const CritBucket filler = row.kind == "snapshot" ? CritBucket::kCompute
                                                       : CritBucket::kBootInit;
      sweep(&row, segs, filler);
    }
  });

  std::sort(report.rows.begin(), report.rows.end(),
            [](const CritRow& a, const CritRow& b) {
              return std::tie(a.kind, a.instance, a.start, a.span) <
                     std::tie(b.kind, b.instance, b.start, b.span);
            });
  return report;
}

namespace {

/// Per-kind aggregate used by both the JSON summary and the table.
struct KindStats {
  std::uint64_t count = 0;
  double total = 0;
  double max = 0;
  std::array<double, kCritBucketCount> buckets{};
};

std::map<std::string, KindStats> summarize(const CritReport& report) {
  std::map<std::string, KindStats> by_kind;
  for (const CritRow& row : report.rows) {
    KindStats& ks = by_kind[row.kind];
    ++ks.count;
    ks.total += row.seconds;
    ks.max = std::max(ks.max, row.seconds);
    for (std::size_t b = 0; b < kCritBucketCount; ++b) {
      ks.buckets[b] += row.buckets[b];
    }
  }
  return by_kind;
}

}  // namespace

std::string attribution_json(const CritReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("buckets").begin_array();
  for (const char* name : kBucketNames) w.value(name);
  w.end_array();
  w.key("rows").begin_array();
  for (const CritRow& row : report.rows) {
    w.begin_object();
    w.key("kind").value(row.kind);
    w.key("instance").value(row.instance);
    w.key("lane").value(static_cast<std::uint64_t>(row.lane));
    w.key("span").value(row.span);
    w.key("start").value(row.start);
    w.key("seconds").value(row.seconds);
    w.key("attribution").begin_object();
    for (std::size_t b = 0; b < kCritBucketCount; ++b) {
      w.key(kBucketNames[b]).value(row.buckets[b]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  for (const auto& [kind, ks] : summarize(report)) {
    w.key(kind).begin_object();
    w.key("count").value(ks.count);
    w.key("mean_seconds")
        .value(ks.count > 0 ? ks.total / static_cast<double>(ks.count) : 0.0);
    w.key("max_seconds").value(ks.max);
    w.key("buckets").begin_object();
    for (std::size_t b = 0; b < kCritBucketCount; ++b) {
      w.key(kBucketNames[b]).value(ks.buckets[b]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

std::string attribution_table(const CritReport& report) {
  std::string out;
  if (report.rows.empty()) {
    return "critpath: no root spans (vm/boot, vm/resume, cloud/snapshot) "
           "found in trace\n";
  }

  {
    std::vector<std::string> header = {"kind", "count", "mean_s", "max_s"};
    for (const char* name : kBucketNames) header.emplace_back(name);
    Table t(header);
    for (const auto& [kind, ks] : summarize(report)) {
      std::vector<std::string> cells = {
          kind, std::to_string(ks.count),
          Table::num(ks.total / static_cast<double>(ks.count), 3),
          Table::num(ks.max, 3)};
      for (std::size_t b = 0; b < kCritBucketCount; ++b) {
        cells.push_back(Table::num(ks.buckets[b], 3));
      }
      t.add_row(cells);
    }
    out += "Critical-path attribution by kind (seconds summed over "
           "instances)\n";
    out += t.to_string();
  }

  {
    std::vector<std::string> header = {"kind", "inst", "lane", "seconds"};
    for (const char* name : kBucketNames) header.emplace_back(name);
    Table t(header);
    for (const CritRow& row : report.rows) {
      std::vector<std::string> cells = {
          row.kind, std::to_string(row.instance), std::to_string(row.lane),
          Table::num(row.seconds, 3)};
      for (std::size_t b = 0; b < kCritBucketCount; ++b) {
        cells.push_back(Table::num(row.buckets[b], 3));
      }
      t.add_row(cells);
    }
    out += "\nPer-instance breakdown\n";
    out += t.to_string();
  }

  const CritRow* slow = &report.rows.front();
  for (const CritRow& row : report.rows) {
    if (row.seconds > slow->seconds) slow = &row;
  }
  std::vector<const CritSegment*> segs;
  segs.reserve(slow->segments.size());
  for (const CritSegment& s : slow->segments) segs.push_back(&s);
  std::sort(segs.begin(), segs.end(),
            [](const CritSegment* a, const CritSegment* b) {
              if (a->seconds != b->seconds) return a->seconds > b->seconds;
              return a->start < b->start;
            });
  if (segs.size() > 8) segs.resize(8);
  Table t({"start_s", "seconds", "bucket", "event", "holder"});
  for (const CritSegment* s : segs) {
    t.add_row({Table::num(s->start, 4),
               Table::num(s->seconds, 4), crit_bucket_name(s->bucket),
               s->name == 0 ? "(uncovered)"
                            : std::string(report.names.str(s->name)),
               s->holder != 0 ? std::to_string(s->holder) : "-"});
  }
  out += "\nSlowest instance: " + slow->kind + " #" +
         std::to_string(slow->instance) + " (" +
         Table::num(slow->seconds, 3) +
         " s) — largest critical-path segments\n";
  out += t.to_string();
  return out;
}

}  // namespace vmstorm::obs
