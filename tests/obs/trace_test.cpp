#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"

namespace vmstorm::obs {
namespace {

/// An arg with its strings spelled out, for comparing traces whose name
/// tables number the same strings differently.
struct FlatArg {
  std::string key;
  TraceArg::Kind kind = TraceArg::Kind::kString;
  std::string s;
  std::uint64_t u = 0;
  double d = 0;
};

/// An event with its strings and args spelled out.
struct FlatEvent {
  double ts = 0;
  double dur = -1;
  char phase = 'i';
  std::uint32_t lane = 0;
  SpanId id = 0;
  SpanId parent = 0;
  SpanId span = 0;
  std::string cat;
  std::string name;
  std::vector<FlatArg> args;
};

std::vector<FlatEvent> flatten(const Trace& trace) {
  std::vector<FlatEvent> out;
  for (const TraceEvent& ev : trace.events) {
    FlatEvent& f = out.emplace_back();
    f.ts = ev.ts;
    f.dur = ev.dur;
    f.phase = ev.phase;
    f.lane = ev.lane;
    f.id = ev.id;
    f.parent = ev.parent;
    f.span = ev.span;
    f.cat = trace.str(ev.cat);
    f.name = trace.str(ev.name);
    for (const TraceArg& a : trace.args_of(ev)) {
      f.args.push_back({std::string(trace.str(a.key)), a.kind,
                        std::string(trace.str(a.s)), a.u, a.d});
    }
  }
  return out;
}

/// Events equal field by field, strings compared by content.
void expect_same_events(const std::vector<FlatEvent>& got,
                        const std::vector<FlatEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const FlatEvent& g = got[i];
    const FlatEvent& w = want[i];
    EXPECT_EQ(g.name, w.name) << i;
    EXPECT_EQ(g.cat, w.cat) << i;
    EXPECT_EQ(g.phase, w.phase) << i;
    EXPECT_EQ(g.ts, w.ts) << i;
    EXPECT_EQ(g.dur, w.dur) << i;
    EXPECT_EQ(g.lane, w.lane) << i;
    EXPECT_EQ(g.id, w.id) << i;
    EXPECT_EQ(g.parent, w.parent) << i;
    EXPECT_EQ(g.span, w.span) << i;
    ASSERT_EQ(g.args.size(), w.args.size()) << i;
    for (std::size_t a = 0; a < w.args.size(); ++a) {
      EXPECT_EQ(g.args[a].key, w.args[a].key) << i;
      EXPECT_EQ(g.args[a].kind, w.args[a].kind) << i;
      EXPECT_EQ(g.args[a].s, w.args[a].s) << i;
      EXPECT_EQ(g.args[a].u, w.args[a].u) << i;
      EXPECT_EQ(g.args[a].d, w.args[a].d) << i;
    }
  }
}

void expect_same_events(const Trace& got, const Trace& want) {
  expect_same_events(flatten(got), flatten(want));
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.complete_span(1.0, 0.5, 0, "cat", "span", t.new_span(), 0);
  t.instant(2.0, 0, "cat", "mark");
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, RecordsEventsWhenEnabled) {
  Tracer t;
  t.set_enabled(true);
  const SpanId root = t.new_span();
  t.complete_span(1.0, 0.5, 3, "net", "transfer", root, 0,
                  {TraceArg::uint("bytes", 1024), TraceArg::str("dst", "n2")});
  t.complete_in(1.5, 0.25, 1, "svc", "disk", root);
  t.instant(4.0, 0, "cloud", "snapshot_start");
  ASSERT_EQ(t.size(), 3u);
  const Trace trace = t.events();
  const auto& evs = trace.events;
  const TraceEvent& e = evs[0];
  EXPECT_EQ(e.phase, 'X');
  EXPECT_DOUBLE_EQ(e.ts, 1.0);
  EXPECT_DOUBLE_EQ(e.dur, 0.5);
  EXPECT_EQ(e.lane, 3u);
  EXPECT_EQ(trace.str(e.cat), "net");
  EXPECT_EQ(trace.str(e.name), "transfer");
  EXPECT_EQ(e.id, root);
  ASSERT_EQ(e.arg_count, 2u);
  const std::span<const TraceArg> args = trace.args_of(e);
  EXPECT_EQ(args[0].kind, TraceArg::Kind::kUint);
  EXPECT_EQ(trace.str(args[0].key), "bytes");
  EXPECT_EQ(args[0].u, 1024u);
  EXPECT_EQ(args[1].kind, TraceArg::Kind::kString);
  EXPECT_EQ(trace.str(args[1].s), "n2");
  EXPECT_EQ(trace.args.size(), 2u);
  EXPECT_EQ(evs[1].phase, 'X');
  EXPECT_EQ(evs[1].span, root);
  EXPECT_EQ(evs[2].phase, 'i');
}

TEST(Tracer, JsonlOneObjectPerLine) {
  Tracer t;
  t.set_enabled(true);
  t.complete_span(1.0, 0.5, 0, "c", "a", t.new_span(), 0);
  t.instant(2.0, 0, "c", "b");
  const std::string jsonl = t.jsonl();
  std::size_t lines = 0;
  for (char ch : jsonl) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(jsonl.find("{"), 0u);
}

TEST(Tracer, ChromeJsonShapeAndDeterminism) {
  const auto build = [] {
    Tracer t;
    t.set_enabled(true);
    t.complete_span(1.0, 0.5, 2, "net", "transfer", t.new_span(), 0,
                    {TraceArg::num("mb", 1.5)});
    return t.chrome_json();
  };
  const std::string j1 = build();
  EXPECT_EQ(j1, build());
  // Chrome trace_event essentials: phase, timestamps, pid/tid lanes.
  EXPECT_NE(j1.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j1.find("\"ts\":"), std::string::npos);
  EXPECT_NE(j1.find("\"dur\":"), std::string::npos);
  EXPECT_NE(j1.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(j1.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(j1.find("\"traceEvents\""), std::string::npos);
}

TEST(Tracer, ClearResets) {
  Tracer t;
  t.set_enabled(true);
  t.instant(1.0, 0, "c", "x");
  t.complete_span(2.0, 3.0, 0, "c", "y", t.new_span(), 0);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded_total(), 0u);
  // Span ids restart: a cleared tracer replays a run's ids exactly.
  EXPECT_EQ(t.new_span(), 1u);
}

/// Records event number i of a sequence in which every event has args of
/// its own: 0 to 3 of them (so a slot's new args outnumber its old ones as
/// often as not), each holding i.
void record_numbered(Tracer& t, std::size_t i) {
  const double ts = static_cast<double>(i);
  const std::uint32_t lane = static_cast<std::uint32_t>(i % 5);
  const std::string note = "note" + std::to_string(i % 11);
  switch (i % 4) {
    case 0: t.instant(ts, lane, "c", "e"); break;
    case 1: t.instant(ts, lane, "c", "e", {TraceArg::uint("i", i)}); break;
    case 2:
      t.complete_in(ts, 0.5, lane, "svc", "disk", i + 1,
                    {TraceArg::uint("bytes", i), TraceArg::str("note", note)});
      break;
    default:
      t.complete_span(ts, 0.25, lane, "blob", "fetch", i + 1, i,
                      {TraceArg::str("bucket", note), TraceArg::uint("i", i),
                       TraceArg::num("half", ts / 2)});
      break;
  }
}

/// The last `n` lines of `jsonl`.
std::string last_lines(const std::string& jsonl, std::size_t n) {
  std::size_t at = jsonl.size();
  for (std::size_t i = 0; i <= n && at != 0; ++i) {
    at = jsonl.rfind('\n', at - 1);
    if (at == std::string::npos) return jsonl;
  }
  return jsonl.substr(at + 1);
}

TEST(Tracer, RingWrapKeepsNewestAndCountsDrops) {
  Tracer t;
  t.set_enabled(true);
  t.set_ring_capacity(4);
  EXPECT_EQ(t.ring_capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    t.instant(static_cast<double>(i), 0, "c", "e" + std::to_string(i),
              {TraceArg::uint("i", static_cast<std::uint64_t>(i))});
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.recorded_total(), 10u);
  EXPECT_EQ(t.dropped_ring(), 6u);
  EXPECT_EQ(t.dropped_total(), 6u);
  // The retained window is the newest 4 events, oldest first, each with
  // its own arg.
  const Trace trace = t.events();
  ASSERT_EQ(trace.events.size(), 4u);
  ASSERT_EQ(trace.args.size(), 4u);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& ev = trace.events[i];
    EXPECT_DOUBLE_EQ(ev.ts, static_cast<double>(6 + i));
    EXPECT_EQ(trace.str(ev.name), "e" + std::to_string(6 + i));
    ASSERT_EQ(ev.arg_count, 1u);
    EXPECT_EQ(trace.args_of(ev)[0].u, 6 + i);
  }
  // Exports see exactly the retained window.
  std::size_t lines = 0;
  for (char ch : t.jsonl()) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4u);

  // Neither clear() nor set_ring_capacity() leaves an arg or a name of the
  // old events behind: what follows exports as in a fresh tracer.
  Tracer fresh;
  fresh.set_enabled(true);
  fresh.instant(1.0, 2, "c", "after", {TraceArg::str("k", "v")});
  for (const bool resize : {false, true}) {
    SCOPED_TRACE(resize ? "set_ring_capacity" : "clear");
    if (resize) {
      t.set_ring_capacity(4);
    } else {
      t.clear();
    }
    const Trace empty = t.events();
    EXPECT_TRUE(empty.events.empty());
    EXPECT_TRUE(empty.args.empty());
    EXPECT_EQ(empty.names.size(), 1u);  // just ""
    t.instant(1.0, 2, "c", "after", {TraceArg::str("k", "v")});
    EXPECT_EQ(t.jsonl(), fresh.jsonl());
    EXPECT_EQ(t.events().names.size(), fresh.events().names.size());
  }
}

TEST(Tracer, ChunkedRingWrapKeepsNewestWindowOldestFirst) {
  // One chunk and three slots. Three times the capacity wraps the ring at a
  // chunk start; one chunk more leaves the oldest retained event in the
  // short second chunk, so the window crosses both chunks twice.
  const std::size_t cap = Tracer::kRingChunk + 3;
  for (const std::size_t total : {3 * cap, 3 * cap + Tracer::kRingChunk + 1}) {
    Tracer t;
    t.set_enabled(true);
    t.set_ring_capacity(cap);
    for (std::size_t i = 0; i < total; ++i) {
      t.instant(static_cast<double>(i), 0, "c", "e");
    }
    EXPECT_EQ(t.size(), cap);
    EXPECT_EQ(t.recorded_total(), total);
    EXPECT_EQ(t.dropped_ring(), total - cap);
    const Trace trace = t.events();
    const auto& evs = trace.events;
    ASSERT_EQ(evs.size(), cap);
    for (std::size_t i = 0; i < cap; ++i) {
      ASSERT_EQ(evs[i].ts, static_cast<double>(total - cap + i)) << i;
    }
    const std::string jsonl = t.jsonl();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(jsonl.begin(), jsonl.end(), '\n')),
              cap);
  }

  // Events with args of their own, into rings whose last wrap lands inside
  // a chunk, after three passes: each slot's args were rewritten by later
  // passes, with more or fewer args than the slot held before. Every
  // export shows each retained event's own args, like the same window
  // recorded unbounded.
  for (const std::size_t ring :
       {std::size_t{1}, Tracer::kRingChunk - 1, Tracer::kRingChunk + 3,
        3 * Tracer::kRingChunk + 5}) {
    SCOPED_TRACE("capacity " + std::to_string(ring));
    const std::size_t total = 2 * ring + ring / 2 + 3;
    Tracer wrapped;
    Tracer unbounded;
    Tracer window;  // only the newest `ring` events of the sequence
    wrapped.set_ring_capacity(ring);
    for (Tracer* t : {&wrapped, &unbounded, &window}) t->set_enabled(true);
    for (std::size_t i = 0; i < total; ++i) {
      record_numbered(wrapped, i);
      record_numbered(unbounded, i);
      if (i >= total - ring) record_numbered(window, i);
    }
    ASSERT_EQ(wrapped.size(), ring);
    ASSERT_EQ(wrapped.dropped_ring(), total - ring);
    const std::string want = last_lines(unbounded.jsonl(), ring);
    EXPECT_EQ(wrapped.jsonl(), want);
    EXPECT_EQ(wrapped.jsonl(3), want);
    EXPECT_EQ(window.jsonl(), want);
    EXPECT_EQ(wrapped.chrome_json(), window.chrome_json());
    expect_same_events(wrapped.events(), window.events());
  }
}

TEST(Tracer, ClearPreservesRingAndSamplingConfig) {
  Tracer t;
  t.set_enabled(true);
  t.set_ring_capacity(8);
  t.set_sampling(0.5, 7);
  t.instant(1.0, 0, "c", "x");
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded_total(), 0u);
  EXPECT_EQ(t.dropped_ring(), 0u);
  EXPECT_EQ(t.dropped_sampling(), 0u);
  EXPECT_EQ(t.ring_capacity(), 8u);
  EXPECT_TRUE(t.sampling_active());
  EXPECT_DOUBLE_EQ(t.sample_rate(), 0.5);
}

void record_sampled_spans(Tracer& t, double rate) {
  t.set_enabled(true);
  t.set_sampling(rate, /*seed=*/2011);
  for (int i = 0; i < 64; ++i) {
    const SpanId root = t.new_span();
    const SpanId child = t.new_span(root);
    // Children inherit the root's keep/drop decision: whole trees sampled.
    EXPECT_EQ(t.span_sampled(child), t.span_sampled(root));
    const double ts = static_cast<double>(i);
    t.complete_span(ts, 1.0, 0, "vm", "boot", root, 0);
    t.complete_span(ts, 0.5, 0, "vm", "phase", child, root);
  }
}

TEST(Tracer, SamplingIsDeterministicSeededSubset) {
  Tracer a;
  Tracer b;
  record_sampled_spans(a, 0.25);
  record_sampled_spans(b, 0.25);
  // Pure function of (seed, span ids): same config, byte-identical export.
  EXPECT_EQ(a.jsonl(), b.jsonl());
  EXPECT_GT(a.recorded_total(), 0u);
  EXPECT_GT(a.dropped_sampling(), 0u);
  EXPECT_EQ(a.recorded_total() + a.dropped_sampling(), 128u);
  EXPECT_EQ(a.dropped_total(), a.dropped_sampling());

  // Ids are allocated whether or not the span is kept, so the sampled run
  // records a strict, id-stable subset of the full run.
  Tracer full;
  record_sampled_spans(full, 1.0);
  EXPECT_FALSE(full.sampling_active());
  EXPECT_EQ(full.dropped_sampling(), 0u);
  EXPECT_EQ(full.recorded_total(), 128u);
  const std::vector<FlatEvent> all = flatten(full.events());
  for (const FlatEvent& e : flatten(a.events())) {
    bool found = false;
    for (const FlatEvent& f : all) {
      if (f.id == e.id && f.ts == e.ts && f.name == e.name) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "sampled event id " << e.id
                       << " missing from the full stream";
  }
}

TEST(Tracer, FlowEventsCarrySharedId) {
  Tracer t;
  t.set_enabled(true);
  const SpanId id = t.flow_begin(1.0, 0, "wake");
  EXPECT_NE(id, 0u);
  t.flow_end(2.0, 3, "wake", id);
  ASSERT_EQ(t.size(), 2u);
  const Trace trace = t.events();
  const auto& evs = trace.events;
  EXPECT_EQ(evs[0].phase, 's');
  EXPECT_EQ(evs[1].phase, 'f');
  EXPECT_EQ(evs[0].id, id);
  EXPECT_EQ(evs[1].id, id);
  // Chrome requires binding point "enclosing" on the flow-finish side.
  const std::string j = t.chrome_json();
  EXPECT_NE(j.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(j.find("\"bp\":\"e\""), std::string::npos);
}

// ---- parse_trace_jsonl: the inverse of jsonl() ----------------------------

TEST(TraceJsonl, RoundTripKeepsIdsAndUintArgsAbove2To53) {
  // 2^53 + 1 is the first integer a double cannot hold: ids and uint args
  // must come back from their own integer token, not through a double.
  const SpanId big = (SpanId{1} << 53) + 1;
  Tracer t;
  t.set_enabled(true);
  t.complete_span(0.1, 0.25, 7, "vm", "boot", big, big - 2,
                  {TraceArg::uint("bytes", 18446744073709551615ull),
                   TraceArg::num("ratio", 1.0 / 3.0),
                   TraceArg::str("note", "q\"b\\s\n\t\x01")});
  t.complete_in(0.2, 1e-7, 7, "wait", "disk", big,
                {TraceArg::uint("holder", big + 2)});
  t.instant(3.5, 1, "cloud", "mark");
  const SpanId flow = t.flow_begin(4.0, 2, "wake");
  t.flow_end(4.5, 3, "wake", flow);
  auto parsed = parse_trace_jsonl(t.jsonl());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  expect_same_events(*parsed, t.events());
  EXPECT_EQ(parsed->events[0].id, big);
  EXPECT_EQ(parsed->args_of(parsed->events[1])[0].u, big + 2);
}

TEST(TraceJsonl, MalformedLineFailsNamingTheLine) {
  const std::string good = R"({"name":"a","cat":"c","ph":"i","ts":1})";
  for (const char* bad : {
           R"({"name":"abc)",              // unterminated string
           R"({"name" "a"})",              // missing ':'
           R"({"name":"a","ts":1.2.3})",   // malformed number
           R"({"name":"a","ts":1} x)",     // trailing bytes
       }) {
    auto parsed = parse_trace_jsonl(good + "\n" + bad + "\n" + good + "\n");
    ASSERT_FALSE(parsed.is_ok()) << "accepted: " << bad;
    EXPECT_NE(parsed.status().message().find("line 2:"), std::string::npos)
        << parsed.status().message();
  }
}

TEST(TraceJsonl, RejectsRawControlCharactersAndOversizedLanes) {
  for (const char* bad : {
           "{\"name\":\"a\x01z\",\"ph\":\"i\"}",  // the writer escapes it
           R"({"name":"a","ph":"i","lane":4294967296})",  // wider than 32 bits
       }) {
    auto parsed = parse_trace_jsonl(bad);
    ASSERT_FALSE(parsed.is_ok()) << "accepted: " << bad;
    EXPECT_NE(parsed.status().message().find("line 1:"), std::string::npos)
        << parsed.status().message();
  }
}

TEST(TraceJsonl, RejectsLanesAndIdsThatAreNotNonNegativeIntegers) {
  for (const char* bad : {
           R"({"name":"a","ph":"i","lane":-1})",
           R"({"name":"a","ph":"X","ts":0,"dur":1,"id":1.5})",
           R"({"name":"a","ph":"X","ts":0,"dur":1,"span":1e3})",
           R"({"name":"a","ph":"X","ts":0,"dur":1,"id":2,"parent":-4})",
       }) {
    auto parsed = parse_trace_jsonl(bad);
    ASSERT_FALSE(parsed.is_ok()) << "accepted: " << bad;
    EXPECT_NE(parsed.status().message().find("line 1:"), std::string::npos)
        << parsed.status().message();
  }
}

TEST(TraceJsonl, DecodesWideEscapesAndSkipsBlankLinesAndUnknownKeys) {
  auto parsed = parse_trace_jsonl(
      "\n"
      R"({"name":"caf\u00e9","bp":"e","x":{"k":[1,true,null]},"ph":"f",)"
      R"("pid":0,"tid":4,"id":3})"
      "\n\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed->events.size(), 1u);
  const TraceEvent& e = parsed->events[0];
  EXPECT_EQ(parsed->str(e.name), "caf\xc3\xa9");  // UTF-8
  EXPECT_EQ(e.phase, 'f');
  EXPECT_EQ(e.lane, 0u);
  EXPECT_EQ(e.id, 3u);
}

TEST(TraceJsonl, CrlfTextWithWhitespaceOnlyLinesReadsLikeItsLfForm) {
  Tracer t;
  t.set_enabled(true);
  for (int i = 0; i < 8; ++i) {
    t.complete_span(0.5 * i, 0.25, static_cast<std::uint32_t>(i % 3), "vm",
                    "boot", t.new_span(), 0,
                    {TraceArg::uint("bytes", 4096u * static_cast<unsigned>(i))});
  }
  const std::string lf = t.jsonl();
  auto want = parse_trace_jsonl(lf);
  ASSERT_TRUE(want.is_ok()) << want.status().to_string();
  ASSERT_EQ(want->events.size(), 8u);
  // The same lines ending in "\r\n", with a blank line after the second
  // and a line of spaces and a tab after the fifth: ten lines in all.
  std::string crlf;
  std::size_t line = 0;
  for (std::size_t pos = 0; pos < lf.size();) {
    const std::size_t nl = lf.find('\n', pos);
    crlf.append(lf, pos, nl - pos).append("\r\n");
    pos = nl + 1;
    ++line;
    if (line == 2) crlf += "\r\n";
    if (line == 5) crlf += "  \t \r\n";
  }
  for (std::size_t parts = 1; parts <= 4; ++parts) {
    SCOPED_TRACE(std::to_string(parts) + " parts");
    auto got = parse_trace_jsonl(crlf, parts);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    expect_same_events(*got, *want);
    auto bad = parse_trace_jsonl(crlf + "{\"name\":\r\n", parts);
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.status().message().rfind("line 11:", 0), 0u)
        << bad.status().message();
  }
  auto spaces = parse_trace_jsonl("   \n" + lf);
  ASSERT_TRUE(spaces.is_ok()) << spaces.status().to_string();
  expect_same_events(*spaces, *want);
}

// ---- The event writer against a JsonWriter reference ----------------------

void reference_event(JsonWriter& w, const Trace& trace, const TraceEvent& ev,
                     bool chrome) {
  w.begin_object();
  w.key("name").value(trace.str(ev.name));
  w.key("cat").value(trace.str(ev.cat));
  w.key("ph").value(std::string_view(&ev.phase, 1));
  if (chrome) {
    w.key("ts").value(ev.ts * 1e6);
    if (ev.phase == 'X') w.key("dur").value(ev.dur * 1e6);
    w.key("pid").value(std::uint64_t{0});
    w.key("tid").value(std::uint64_t{ev.lane});
  } else {
    w.key("ts").value(ev.ts);
    if (ev.phase == 'X') w.key("dur").value(ev.dur);
    w.key("lane").value(std::uint64_t{ev.lane});
  }
  if (ev.id != 0) w.key("id").value(ev.id);
  if (ev.parent != 0) w.key("parent").value(ev.parent);
  if (ev.span != 0) w.key("span").value(ev.span);
  if (chrome && ev.phase == 'f') w.key("bp").value("e");
  if (ev.arg_count != 0) {
    w.key("args").begin_object();
    for (const TraceArg& a : trace.args_of(ev)) {
      w.key(trace.str(a.key));
      switch (a.kind) {
        case TraceArg::Kind::kString: w.value(trace.str(a.s)); break;
        case TraceArg::Kind::kUint: w.value(a.u); break;
        case TraceArg::Kind::kDouble: w.value(a.d); break;
      }
    }
    w.end_object();
  }
  w.end_object();
}

std::string reference_jsonl(const Trace& trace) {
  std::string out;
  for (const TraceEvent& ev : trace.events) {
    JsonWriter w;
    reference_event(w, trace, ev, /*chrome=*/false);
    out += w.str();
    out += '\n';
  }
  return out;
}

std::string reference_chrome_json(const Trace& trace) {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const TraceEvent& ev : trace.events) {
    reference_event(w, trace, ev, /*chrome=*/true);
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string random_text(Rng& rng) {
  static constexpr char kBytes[] = {'a', 'z', '.', ' ', '/', '"', '\\',
                                    '\n', '\t', '\r', '\x01', '\x1f'};
  std::string s(rng.uniform_u64(10), ' ');
  for (char& c : s) c = kBytes[rng.uniform_u64(sizeof(kBytes))];
  return s;
}

/// Finite doubles with the corner cases of shortest-form printing.
double random_double(Rng& rng) {
  switch (rng.uniform_u64(7)) {
    case 0: return -0.0;
    case 1: return 1.0 / 3.0;
    case 2:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.uniform_u64(1000));
    case 3: return static_cast<double>(rng.uniform_u64(1000));
    case 4: return -rng.uniform_double() * 1e300;
    case 5: return rng.uniform_double() * 1e-12;
    default: return rng.uniform_double() * 100;
  }
}

std::uint64_t random_u64(Rng& rng) {
  return rng.bernoulli(0.1) ? UINT64_MAX
                            : rng.next_u64() >> rng.uniform_u64(64);
}

/// A random event for record(); *finite is cleared when it carries a
/// non-finite double, which the exports render as null.
FlatEvent random_event(Rng& rng, bool* finite) {
  FlatEvent ev;
  ev.phase = "Xisf"[rng.uniform_u64(4)];
  ev.ts = random_double(rng);
  ev.dur = random_double(rng);
  ev.lane = static_cast<std::uint32_t>(random_u64(rng));
  ev.cat = random_text(rng);
  ev.name = random_text(rng);
  if (ev.phase == 'X') {
    // A span event (own id, parent) or a cost event (span, id 0).
    if (rng.bernoulli(0.5)) {
      ev.id = 1 + random_u64(rng) / 2;
      ev.parent = random_u64(rng);
    } else {
      ev.span = random_u64(rng);
    }
  } else if (ev.phase == 'f') {
    ev.id = 1 + random_u64(rng) / 2;
  }
  const std::uint64_t nargs = ev.phase == 'X' || ev.phase == 'i'
                                  ? rng.uniform_u64(4)
                                  : 0;
  for (std::uint64_t i = 0; i < nargs; ++i) {
    FlatArg& a = ev.args.emplace_back();
    switch (rng.uniform_u64(3)) {
      case 0:
        a.key = random_text(rng);
        a.s = random_text(rng);
        break;
      case 1:
        a.key = random_text(rng);
        a.kind = TraceArg::Kind::kUint;
        a.u = random_u64(rng);
        break;
      default:
        a.key = random_text(rng);
        a.kind = TraceArg::Kind::kDouble;
        a.d = random_double(rng);
        break;
    }
  }
  *finite = rng.uniform_u64(50) != 0;
  if (!*finite) {
    const double bad = rng.bernoulli(0.5)
                           ? std::numeric_limits<double>::quiet_NaN()
                           : -std::numeric_limits<double>::infinity();
    if (ev.args.empty()) {
      ev.ts = bad;
    } else {
      ev.args.back() = {"bad", TraceArg::Kind::kDouble, "", 0, bad};
    }
  }
  return ev;
}

void record(Tracer& t, const FlatEvent& ev, TraceArgs args) {
  switch (ev.phase) {
    case 'X':
      if (ev.id != 0) {
        t.complete_span(ev.ts, ev.dur, ev.lane, ev.cat, ev.name, ev.id,
                        ev.parent, args);
      } else {
        t.complete_in(ev.ts, ev.dur, ev.lane, ev.cat, ev.name, ev.span,
                      args);
      }
      break;
    case 'i': t.instant(ev.ts, ev.lane, ev.cat, ev.name, args); break;
    case 's': t.flow_begin(ev.ts, ev.lane, ev.name); break;
    default: t.flow_end(ev.ts, ev.lane, ev.name, ev.id); break;
  }
}

/// Records `ev` through the tracer's public calls, spelling its 0 to 3
/// args as a recording site does.
void record(Tracer& t, const FlatEvent& ev) {
  std::vector<TraceArg::View> a;
  for (const FlatArg& f : ev.args) a.push_back({f.key, f.kind, f.s, f.u, f.d});
  switch (a.size()) {
    case 0: return record(t, ev, {});
    case 1: return record(t, ev, {a[0]});
    case 2: return record(t, ev, {a[0], a[1]});
    default: return record(t, ev, {a[0], a[1], a[2]});
  }
}

TEST(TraceExport, EventWriterMatchesJsonWriterAndRoundTrips) {
  // Enough events for four export parts, and a ring that wraps while still
  // holding that many.
  constexpr std::size_t kEvents = 5 * Tracer::kExportPart + 123;
  Rng rng(2011);
  Tracer all;
  Tracer finite;
  Tracer wrapped;
  wrapped.set_ring_capacity(4 * Tracer::kExportPart + 1001);
  for (Tracer* t : {&all, &finite, &wrapped}) t->set_enabled(true);
  for (std::size_t i = 0; i < kEvents; ++i) {
    bool is_finite = true;
    const FlatEvent ev = random_event(rng, &is_finite);
    record(all, ev);
    record(wrapped, ev);
    if (is_finite) record(finite, ev);
  }
  ASSERT_LT(finite.size(), all.size());
  ASSERT_GT(wrapped.dropped_ring(), 0u);
  for (const Tracer* t : {&all, &wrapped}) {
    const Trace recorded = t->events();
    const std::string jsonl = reference_jsonl(recorded);
    const std::string chrome = reference_chrome_json(recorded);
    EXPECT_EQ(t->jsonl(), jsonl);
    EXPECT_EQ(t->chrome_json(), chrome);
    for (std::size_t parts : {1, 2, 3, 7}) {
      EXPECT_EQ(t->jsonl(parts), jsonl) << parts << " parts";
      EXPECT_EQ(t->chrome_json(parts), chrome) << parts << " parts";
    }
  }

  // Every finite event reads back to what renders the same bytes again.
  const std::string text = finite.jsonl();
  auto parsed = parse_trace_jsonl(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(reference_jsonl(*parsed), text);
}

// ---- The reader's parts ---------------------------------------------------

constexpr std::size_t kSlot = 640;     ///< bytes per line of split_text()
constexpr std::size_t kSlots = 8192;   ///< lines: 5 MiB, five reader parts
constexpr std::size_t kPartCounts[] = {2, 3, 4, 7};

/// Where parse_trace_jsonl cuts part p of `parts`: just past the first
/// '\n' at or after that part's even share (obs/trace.hpp).
std::size_t cut(std::string_view text, std::size_t parts, std::size_t p) {
  return text.find('\n', part_range(text.size(), parts, p).begin) + 1;
}

/// kSlots lines of kSlot bytes: finite random events, padded with spaces.
/// Wherever a part count in kPartCounts cuts, the line before the cut ends
/// in "\r\n" and the part starts with a blank line. Padding keeps every
/// line at kSlot bytes (a blank line takes one byte off the event after
/// it), so the text's size, and with it every cut, is known in advance.
std::string split_text() {
  enum : std::uint8_t { kCr = 1, kBlankFirst = 2 };
  std::vector<std::uint8_t> marks(kSlots, 0);
  for (std::size_t parts : kPartCounts) {
    for (std::size_t p = 1; p < parts; ++p) {
      const std::size_t slot =
          part_range(kSlots * kSlot, parts, p).begin / kSlot;
      marks[slot] |= kCr;
      marks[slot + 1] |= kBlankFirst;
    }
  }
  Rng rng(7);
  Tracer events;
  events.set_enabled(true);
  while (events.size() < kSlots + kSlots / 8) {
    bool is_finite = true;
    const FlatEvent ev = random_event(rng, &is_finite);
    if (is_finite) record(events, ev);
  }
  const std::string lines = events.jsonl();
  std::string text;
  text.reserve(kSlots * kSlot);
  std::size_t pos = 0;
  for (std::size_t slot = 0; slot < kSlots;) {
    const std::size_t nl = lines.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string_view line(lines.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.size() > kSlot - 3) continue;
    const std::size_t start = text.size();
    if (marks[slot] & kBlankFirst) text += '\n';
    text += line;
    text.resize(start + kSlot - ((marks[slot] & kCr) ? 2 : 1), ' ');
    if (marks[slot] & kCr) text += '\r';
    text += '\n';
    ++slot;
  }
  return text;
}

/// The reference: each non-blank line parsed on its own.
std::vector<FlatEvent> parse_line_by_line(std::string_view text) {
  std::vector<FlatEvent> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    auto one = parse_trace_jsonl(line);
    EXPECT_TRUE(one.is_ok()) << one.status().to_string();
    if (!one.is_ok() || one->events.size() != 1) return {};
    out.push_back(flatten(*one)[0]);
  }
  return out;
}

TEST(TraceJsonl, PartsCutAtLineBoundariesReadLikeOneLineAtATime) {
  const std::string text = split_text();
  ASSERT_EQ(text.size(), kSlots * kSlot);
  // The automatic count reaches four parts on a host with four threads.
  ASSERT_GE(text.size(), 4 * kParsePart);
  for (std::size_t parts : kPartCounts) {
    for (std::size_t p = 1; p < parts; ++p) {
      const std::size_t at = cut(text, parts, p);
      EXPECT_EQ(text.substr(at - 2, 3), "\r\n\n")
          << parts << " parts, cut " << p;
    }
  }
  const std::vector<FlatEvent> want = parse_line_by_line(text);
  ASSERT_EQ(want.size(), kSlots);
  auto got = parse_trace_jsonl(text);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  expect_same_events(flatten(*got), want);
  for (std::size_t parts : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{4}, std::size_t{7}}) {
    SCOPED_TRACE(std::to_string(parts) + " parts");
    got = parse_trace_jsonl(text, parts);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    expect_same_events(flatten(*got), want);
  }
}

TEST(TraceJsonl, PartsInternEachStringByItsFirstAppearanceInTheText) {
  // Names in their JSON spellings: the empty string, one that needs an
  // escape, and "é" both escaped and raw, which read as one string.
  static constexpr const char* kSpellings[] = {
      R"("")",    R"("a\"b")",   R"("\u00e9")", "\"\xc3\xa9\"",
      R"("disk")", R"("net.tx")", R"("wait")"};
  std::vector<std::size_t> order(std::size(kSpellings));
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  // 84 lines in blocks of 12, each block with its own order, so the parts
  // of every count below meet the names in different first-seen orders.
  Rng rng(11);
  std::string text;
  for (std::size_t i = 0; i < 84; ++i) {
    if (i % 12 == 0) {
      for (std::size_t k = order.size() - 1; k > 0; --k) {
        std::swap(order[k], order[rng.uniform_u64(k + 1)]);
      }
    }
    const auto pick = [&](std::size_t k) {
      return kSpellings[order[(i + k) % order.size()]];
    };
    const std::string n = std::to_string(i);
    text += std::string("{\"name\":") + pick(0) + ",\"cat\":" + pick(1) +
            ",\"ph\":\"X\",\"ts\":" + n + ",\"dur\":1,\"lane\":" + n +
            ",\"span\":" + n + ",\"args\":{" + pick(2) + ":" + pick(3) +
            ",\"n\":" + n + "}}\n";
  }
  const std::vector<FlatEvent> want = parse_line_by_line(text);
  ASSERT_EQ(want.size(), 84u);
  auto one = parse_trace_jsonl(text, 1);
  ASSERT_TRUE(one.is_ok()) << one.status().to_string();
  expect_same_events(flatten(*one), want);
  // Six strings and the key "n", each once; "" is id 0.
  const NameTable& names = one->names;
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names.str(0), "");
  EXPECT_EQ(names.json(0), R"("")");
  EXPECT_EQ(names.json(names.find("a\"b")), R"("a\"b")");
  EXPECT_EQ(names.json(names.find("\xc3\xa9")), "\"\xc3\xa9\"");
  EXPECT_EQ(names.find("absent"), kNoName);
  for (std::size_t parts : {2, 3, 4, 7}) {
    SCOPED_TRACE(std::to_string(parts) + " parts");
    auto got = parse_trace_jsonl(text, parts);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    expect_same_events(flatten(*got), want);
    // Merged in part order, the tables number every string as one part
    // does, so the ids themselves agree.
    ASSERT_EQ(got->names.size(), names.size());
    for (NameId id = 0; id < names.size(); ++id) {
      EXPECT_EQ(got->names.str(id), names.str(id)) << id;
      EXPECT_EQ(got->names.json(id), names.json(id)) << id;
    }
    ASSERT_EQ(got->args.size(), one->args.size());
    for (std::size_t i = 0; i < one->events.size(); ++i) {
      const TraceEvent& g = got->events[i];
      const TraceEvent& w = one->events[i];
      EXPECT_EQ(g.name, w.name) << i;
      EXPECT_EQ(g.cat, w.cat) << i;
      EXPECT_EQ(g.args_at, w.args_at) << i;
      EXPECT_EQ(g.arg_count, w.arg_count) << i;
    }
    for (std::size_t a = 0; a < one->args.size(); ++a) {
      EXPECT_EQ(got->args[a].key, one->args[a].key) << a;
      EXPECT_EQ(got->args[a].s, one->args[a].s) << a;
    }
  }
}

TEST(TraceJsonl, PartsReportTheFirstMalformedLineInTheWholeText) {
  std::string text = split_text();
  // The 1-based line number of the event starting at byte `at`.
  const auto line_of = [&text](std::size_t at) {
    return 1 + static_cast<std::size_t>(std::count(
                   text.begin(), text.begin() + static_cast<std::ptrdiff_t>(at),
                   '\n'));
  };
  // The last line of all sits in the last part at every part count.
  const std::size_t last = text.rfind('\n', text.size() - 2) + 1;
  ASSERT_EQ(text[last], '{');
  text[last] = 'x';
  const std::string want_last = "line " + std::to_string(line_of(last)) + ":";
  // A second error in the second of four parts: every count above one
  // puts it in an earlier part than the last line.
  std::size_t second = text.find('\n', cut(text, 4, 1) + kSlot) + 1;
  while (text[second] == '\n') ++second;
  ASSERT_EQ(text[second], '{');
  const std::string want_second =
      "line " + std::to_string(line_of(second)) + ":";
  for (bool both : {false, true}) {
    std::string input = text;
    if (both) input[second] = 'x';
    const std::string& want = both ? want_second : want_last;
    for (std::size_t parts : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{7}}) {
      auto got = parse_trace_jsonl(input, parts);
      ASSERT_FALSE(got.is_ok()) << parts << " parts";
      EXPECT_EQ(got.status().message().rfind(want, 0), 0u)
          << parts << " parts: " << got.status().message() << " (want " << want
          << ")";
    }
  }
}

}  // namespace
}  // namespace vmstorm::obs
