// Span/event tracer stamped with the simulated clock.
//
// Components record structured events (chunk fetch, RPC, CLONE/COMMIT
// phases, per-instance boot spans...) with explicit timestamps in simulated
// seconds. Recording is O(1) slot writes into a bounded ring and a no-op
// while the tracer is disabled, so leaving trace calls in hot paths costs
// one branch.
//
// Causality: events can carry span identity. A *span* event (complete_span)
// owns a fresh id and names its parent, forming the span DAG the critical-
// path analyzer (obs/critpath.hpp) walks. Simulated components open spans
// through sim::SpanScope (sim/causal.hpp), which allocates the id, makes it
// the engine's current span and, when finished, records the span and makes
// the parent current again; any other exit only restores the parent. A
// *cost* event (complete_in) is a leaf interval — service time or queue
// wait — attributed to the enclosing span. Cross-coroutine wakeups are tied
// together with Chrome flow events ('s' at the releaser, 'f' at the resumed
// waiter, same id). Instant events mark milestones.
//
// Bounded recording: events live in a ring of ring_capacity() slots, stored
// as fixed-size chunks that are allocated as the ring first reaches them
// (small runs never pay for a big ring, and growth never moves a recorded
// event). Once the ring is full the oldest event is overwritten and
// counted in dropped_ring(). Per-root-span sampling (set_sampling) keeps a
// deterministic, seed-derived subset of span/cost events at scale; every
// suppressed event is counted in dropped_sampling(). Together these are the
// trace.dropped_* gauges exported by Cloud::collect_metrics().
//
// Two export formats:
//   * jsonl()        — one JSON object per line, for jq/scripts and
//                      `vmstormctl critpath`; parse_trace_jsonl() below
//                      reads it back, so this module alone knows the line
//                      format;
//   * chrome_json()  — the Chrome trace_event array format, loadable in
//                      chrome://tracing or https://ui.perfetto.dev (lanes
//                      map to tids, simulated seconds to microseconds).
//
// Like the metrics registry, output is deterministic: same seed, same
// event sequence, same ring/sampling config, byte-identical export. The
// sampling decision hashes (seed, root span id) only, so it cannot depend
// on wall-clock state, and span ids are allocated whether or not the span
// is kept — a sampled run records a strict subset of the full run's spans,
// with identical ids.
//
// Host threads: recording is single-threaded, like the engine that calls
// it. The two exports and parse_trace_jsonl() cut their input into parts
// and fork-join one host thread per part (common/parallel.hpp), at most
// one per hardware thread, each part at least kExportPart events or
// kParsePart bytes; an input under two parts, such as every export of a
// tracer that stayed disabled, starts no thread. Each part renders or parses its own
// contiguous range into its own string or slice, and the parts join in
// index order, so the bytes and events cannot depend on the thread count.
// Once a thread has run, the rest of the process pays for it: glibc's
// malloc locks its arena and shared_ptr counts atomically from then on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace vmstorm::obs {

class SelfProfiler;

/// Span / flow identifier. 0 means "none"; allocated ids start at 1.
using SpanId = std::uint64_t;

/// One typed argument attached to a trace event; numbers stay numbers in
/// the JSON export.
struct TraceArg {
  enum class Kind { kString, kUint, kDouble };

  std::string key;
  Kind kind = Kind::kString;
  std::string s;
  std::uint64_t u = 0;
  double d = 0;

  static TraceArg str(std::string key, std::string value);
  static TraceArg uint(std::string key, std::uint64_t value);
  static TraceArg num(std::string key, double value);
};

struct TraceEvent {
  double ts = 0;        ///< simulated seconds
  double dur = -1;      ///< >= 0 for complete ('X') events
  char phase = 'i';     ///< 'X' complete, 'i' instant, 's'/'f' flow
                        ///< start/finish
  std::uint32_t lane = 0;  ///< rendered as the Chrome tid (node/instance id)
  SpanId id = 0;        ///< span events: own id; flow events: arrow binding
  SpanId parent = 0;    ///< span events: enclosing span's id
  SpanId span = 0;      ///< cost events: span this interval belongs to
  std::string cat;
  std::string name;
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  /// Default ring capacity (events). Sized so every existing test and
  /// quick-mode bench retains its full stream; chunks are only allocated
  /// as events arrive, so small runs allocate one chunk, not the cap.
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 21;
  /// Slots per ring chunk (the last chunk holds what is left of the cap).
  static constexpr std::size_t kRingChunk = std::size_t{1} << 12;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Allocates a fresh span/flow id (never 0) and decides whether the span
  /// is sampled: a root span (parent == 0) hashes (sample seed, id); a
  /// child inherits its parent's decision, so whole span trees are kept or
  /// dropped together. Call sites gate allocation on enabled(), so ids are
  /// deterministic for a given seed regardless of the sampling rate.
  SpanId new_span(SpanId parent = 0);

  /// Resizes the ring to `capacity` slots (min 1) and discards all
  /// recorded events. Configure before recording starts.
  void set_ring_capacity(std::size_t capacity);
  std::size_t ring_capacity() const { return capacity_; }

  /// Keeps roughly `rate` (in [0, 1]) of root span trees; the complement
  /// is suppressed and counted in dropped_sampling(). The decision is a
  /// pure function of (seed, root span id): same seed + same rate =>
  /// byte-identical output. rate >= 1 restores full tracing.
  void set_sampling(double rate, std::uint64_t seed);
  double sample_rate() const { return sample_rate_; }
  bool sampling_active() const { return sampling_active_; }

  /// True when span `id`'s tree is kept under the current sampling config.
  /// Ids never seen by new_span (or span 0) report true.
  bool span_sampled(SpanId id) const {
    if (!sampling_active_ || id == 0) return true;
    return id >= sampled_bits_.size() || sampled_bits_[id] != 0;
  }

  /// A completed span with causal identity: carries its own id and its
  /// parent's, forming the span DAG critpath walks. Suppressed (and
  /// counted) when span `id` is sampled out.
  void complete_span(double ts, double dur, std::uint32_t lane,
                     std::string_view cat, std::string_view name, SpanId id,
                     SpanId parent, std::vector<TraceArg> args = {});

  /// A leaf cost interval (service time or queue wait) attributed to the
  /// enclosing span `span`. Suppressed (and counted) when that span is
  /// sampled out.
  void complete_in(double ts, double dur, std::uint32_t lane,
                   std::string_view cat, std::string_view name, SpanId span,
                   std::vector<TraceArg> args = {});

  void instant(double ts, std::uint32_t lane, std::string_view cat,
               std::string_view name, std::vector<TraceArg> args = {});

  /// Chrome flow arrow across coroutines: 's' at the releasing side (returns
  /// the arrow id), 'f' at the resumed waiter (pass that id back).
  /// `owner_span` is the span the arrow belongs to (the waiter's); when
  /// that span is sampled out the arrow is suppressed and 0 returned
  /// (flow_end(0) is a no-op).
  SpanId flow_begin(double ts, std::uint32_t lane, std::string_view name,
                    SpanId owner_span = 0);
  void flow_end(double ts, std::uint32_t lane, std::string_view name,
                SpanId id);

  // ---- Drop accounting, by cause -----------------------------------------
  /// Oldest events overwritten because the ring was full.
  std::uint64_t dropped_ring() const { return dropped_ring_; }
  /// Span/cost/flow events suppressed by per-root-span sampling.
  std::uint64_t dropped_sampling() const { return dropped_sampling_; }
  std::uint64_t dropped_total() const {
    return dropped_ring_ + dropped_sampling_;
  }
  /// Events accepted into the ring over the tracer's lifetime, including
  /// any that were later overwritten.
  std::uint64_t recorded_total() const { return count_; }

  /// Events currently retained, oldest first. Built from the ring on each
  /// call; prefer jsonl()/chrome_json() for exports.
  std::vector<TraceEvent> events() const;
  std::size_t size() const {
    return count_ < capacity_ ? static_cast<std::size_t>(count_) : capacity_;
  }
  /// Drops recorded events and resets drop counters and span ids.
  /// Ring capacity and the sampling config survive.
  void clear();

  /// Host-side profiler charged for time spent recording (selfprof's
  /// kTracer bucket). Null (default) skips all wall-clock reads.
  void set_profiler(SelfProfiler* profiler) { profiler_ = profiler; }

  /// Retained events per export part (about 1 MB of JSONL): a ring under
  /// two parts renders on the caller's thread alone.
  static constexpr std::size_t kExportPart = std::size_t{1} << 13;

  /// The exports split the retained events into
  /// part_count(size(), kExportPart) index ranges (common/parallel.hpp),
  /// render each into a string of its own on its own thread and join the
  /// strings in order. The `parts` overloads fix the count (clamped to
  /// [1, size()]); they exist for tests, and every count gives the same
  /// bytes.
  std::string jsonl() const;
  std::string jsonl(std::size_t parts) const;
  std::string chrome_json() const;
  std::string chrome_json(std::size_t parts) const;

 private:
  TraceEvent& push(double ts, double dur, char phase, std::uint32_t lane,
                   std::string_view cat, std::string_view name,
                   std::vector<TraceArg> args);
  void add_chunk();
  void ensure_sampled_slot(SpanId id);
  std::string render(bool chrome, std::size_t parts) const;
  /// Calls fn on retained events [from, to), counted from the oldest.
  template <typename Fn>
  void for_each_retained(std::size_t from, std::size_t to, Fn&& fn) const {
    const std::size_t oldest =
        count_ > capacity_ ? static_cast<std::size_t>(count_ % capacity_) : 0;
    std::size_t slot =
        from < capacity_ - oldest ? oldest + from : from - (capacity_ - oldest);
    for (std::size_t i = from; i < to; ++i) {
      fn(chunks_[slot / kRingChunk][slot % kRingChunk]);
      if (++slot == capacity_) slot = 0;
    }
  }

  bool enabled_ = false;
  SpanId last_id_ = 0;

  // Ring sink. Event number n lives in slot n % capacity_, which is entry
  // slot % kRingChunk of chunks_[slot / kRingChunk]; chunks_ gains one
  // chunk each time the first pass reaches a chunk boundary.
  std::size_t capacity_ = kDefaultRingCapacity;
  std::uint64_t count_ = 0;  ///< events accepted (monotone)
  std::uint64_t dropped_ring_ = 0;
  std::vector<std::vector<TraceEvent>> chunks_;

  // Per-root-span sampling. sampled_bits_[id] is the keep/drop decision for
  // span id (1 byte per allocated id, grown by doubling; absent = kept).
  bool sampling_active_ = false;
  double sample_rate_ = 1.0;
  std::uint64_t sample_seed_ = 0;
  std::uint64_t dropped_sampling_ = 0;
  std::vector<std::uint8_t> sampled_bits_;

  SelfProfiler* profiler_ = nullptr;
};

/// Bytes of JSONL per reader part (about 8,500 lines): a text under two
/// parts is read on the caller's thread alone.
inline constexpr std::size_t kParsePart = std::size_t{1} << 20;

/// Reads a jsonl() export back into events, one per line that is not blank
/// (a blank line holds only spaces, tabs and '\r', so CRLF text reads like
/// LF text), so `vmstormctl critpath` reproduces in-process attribution
/// byte-for-byte (numbers round-trip through shortest-form representation;
/// ids and uint args through their exact integer token). Streams each line
/// through obs/json's JsonLexer, as strict as parse_json(); keys the writer
/// does not emit are skipped. Errors start with "line N: ", N counted over
/// the whole text.
///
/// The text is cut into k = part_count(text.size(), kParsePart) parts at
/// line boundaries: part p starts after the first '\n' at or past byte
/// part_range(text.size(), k, p).begin (common/parallel.hpp). Each part
/// counts its lines on its own thread, the event vector is sized once, and
/// each part then parses its lines into its own slice of it. The first
/// malformed line in file order is reported, so every k gives the same
/// result; the `parts` overload fixes k (clamped to [1, text.size()]) for
/// tests.
Result<std::vector<TraceEvent>> parse_trace_jsonl(std::string_view text);
Result<std::vector<TraceEvent>> parse_trace_jsonl(std::string_view text,
                                                  std::size_t parts);

}  // namespace vmstorm::obs
