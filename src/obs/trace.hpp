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
// Event layout: a TraceEvent is a trivially copyable 64-byte record. Its
// cat and name are ids into a NameTable, which holds each distinct string
// once beside its JSON token (id 0 is ""), and its args are an (offset,
// count) range of a flat array of TraceArgs, whose key and string value
// are ids too. Recording sites pass cat, name and args as views (string
// literals throughout src/); the tracer interns them, which for a string
// the table already holds is a hash and a compare. So recording allocates
// nothing per event, only when the ring reaches a new chunk, a string is
// new or an args arena doubles, and the exports write each string's
// token as stored. The ring, Tracer::events() and parse_trace_jsonl()
// each hold events with a table and an args array of their own (Trace).
//
// Bounded recording: events live in a ring of ring_capacity() slots, stored
// as fixed-size chunks that are allocated as the ring first reaches them
// (small runs never pay for a big ring, and growth never moves a recorded
// event). Once the ring is full the oldest event is overwritten and
// counted in dropped_ring(). Each chunk keeps its events' args in two
// arenas that alternate by pass over the ring, so a ring that wraps in the
// middle of a chunk still holds every retained event's own args; names are
// kept until clear(). Per-root-span sampling (set_sampling) keeps a
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
// tracer that stayed disabled, starts no thread. Each part renders or
// parses its own contiguous range into its own string or slice (a reader
// part into its own name table and args arena too), and the parts join in
// index order, so the bytes and events cannot depend on the thread count.
// Once a thread has run, the rest of the process pays for it: glibc's
// malloc locks its arena and shared_ptr counts atomically from then on.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.hpp"

namespace vmstorm::obs {

class SelfProfiler;

/// Span / flow identifier. 0 means "none"; allocated ids start at 1.
using SpanId = std::uint64_t;

/// Index of a string in a NameTable. Id 0 is "" in every table.
using NameId = std::uint32_t;

/// What NameTable::find() returns for a string the table does not hold; no
/// event or arg carries it.
inline constexpr NameId kNoName = ~NameId{0};

/// Interned strings. Each distinct string is stored once, beside its JSON
/// token (quoted and escaped, as the exports write it), under a dense id in
/// first-seen order; id 0 is "". A lookup keys a string by its length and
/// its first and last 8 bytes, which are the whole string up to 16 bytes,
/// so interning a short name it already holds is a hash, a probe and three
/// compares, inline, with no allocation. The tables grow by construct +
/// swap, because the tracer interns on the engine's hot path.
class NameTable {
 public:
  NameTable();

  /// The id of `s`, added when new. `s` must not view this table's own
  /// text, which adding a string may move.
  NameId intern(std::string_view s) {
    const Key key = key_of(s);
    const NameId slot = slots_[slot_of(s, key)];
    return slot != 0 ? slot - 1 : add(s, key);
  }
  /// The id of `s`, or kNoName.
  NameId find(std::string_view s) const {
    const NameId slot = slots_[slot_of(s, key_of(s))];
    return slot != 0 ? slot - 1 : kNoName;
  }
  /// The string and its JSON token. Both views last until the next
  /// intern() of a new string.
  std::string_view str(NameId id) const {
    const Entry& e = entries_[id];
    return {text_.data() + e.at, e.key.len};
  }
  std::string_view json(NameId id) const {
    const Entry& e = entries_[id];
    return {text_.data() + e.at + e.key.len, e.json_len};
  }
  std::size_t size() const { return size_; }

 private:
  /// A string's length with its first and last 8 bytes. Shorter strings
  /// pack all their bytes into `head`, so equal keys mean equal strings up
  /// to 16 bytes; longer ones compare the bytes between too.
  struct Key {
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::size_t len = 0;

    std::uint64_t hash() const {
      const std::uint64_t h =
          (head ^ std::rotl(tail, 29) ^ len) * 0x9e3779b97f4a7c15ull;
      return h ^ (h >> 32);
    }
  };
  struct Entry {
    Key key;
    std::size_t at = 0;  ///< the string, then its JSON token, in text_
    std::uint32_t json_len = 0;
  };

  static Key key_of(std::string_view s) {
    Key k;
    k.len = s.size();
    const char* p = s.data();
    if (k.len >= 8) {
      std::memcpy(&k.head, p, 8);
      std::memcpy(&k.tail, p + k.len - 8, 8);
    } else if (k.len >= 4) {
      std::uint32_t first = 0;
      std::uint32_t last = 0;
      std::memcpy(&first, p, 4);
      std::memcpy(&last, p + k.len - 4, 4);
      k.head = first | std::uint64_t{last} << 32;
    } else if (k.len != 0) {
      const auto byte = [p](std::size_t i) {
        return std::uint64_t{static_cast<unsigned char>(p[i])};
      };
      k.head = byte(0) | byte(k.len / 2) << 8 | byte(k.len - 1) << 16;
    }
    return k;
  }

  /// The slot holding `s`'s id + 1, or the empty slot where it belongs.
  std::size_t slot_of(std::string_view s, const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = key.hash() & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) return i;
      const Entry& e = entries_[slots_[i] - 1];
      if (e.key.head == key.head && e.key.tail == key.tail &&
          e.key.len == key.len &&
          (key.len <= 16 || std::memcmp(text_.data() + e.at + 8,
                                        s.data() + 8, key.len - 16) == 0)) {
        return i;
      }
    }
  }

  /// Stores a string the table lacks and indexes it, keeping the slots at
  /// most half full.
  NameId add(std::string_view s, const Key& key);

  std::string text_;            ///< text_used_ bytes in use
  std::size_t text_used_ = 0;
  std::vector<Entry> entries_;  ///< size_ in use
  std::size_t size_ = 0;
  std::vector<NameId> slots_;   ///< open addressing: id + 1, 0 when empty
};

/// One typed argument of a trace event; numbers stay numbers in the JSON
/// export. The key, and a string value, are ids into the name table of the
/// trace that holds the arg. Like TraceEvent, its members have no default:
/// TraceArg{} is all zeros, a string arg with key "" and value "".
struct TraceArg {
  enum class Kind : std::uint8_t { kString, kUint, kDouble };

  /// An argument as a recording site spells it: key and string value are
  /// views (string literals at every site in src/), which the tracer
  /// interns when it records the event.
  struct View {
    std::string_view key;
    Kind kind = Kind::kString;
    std::string_view s;
    std::uint64_t u = 0;
    double d = 0;
  };

  static constexpr View str(std::string_view key, std::string_view value) {
    return {key, Kind::kString, value, 0, 0};
  }
  static constexpr View uint(std::string_view key, std::uint64_t value) {
    return {key, Kind::kUint, {}, value, 0};
  }
  static constexpr View num(std::string_view key, double value) {
    return {key, Kind::kDouble, {}, 0, value};
  }

  std::uint64_t u;
  double d;
  NameId key;
  NameId s;  ///< kString: the value
  Kind kind;
};

/// The args of one recording call, spelled `{TraceArg::uint("bytes", n)}`.
using TraceArgs = std::initializer_list<TraceArg::View>;

/// One trace event: 64 bytes with no pointer, so a ring slot, a parsed
/// event and a copy are plain stores. Strings are ids into the name table
/// of the trace that holds the event, and its args are the arg_count
/// entries from args_at of that trace's args array. No member has a
/// default, so a vector of events can be sized without writing them
/// (UninitVector below): TraceEvent{} is all zeros, and an instant event
/// has dur -1.
struct TraceEvent {
  double ts;           ///< simulated seconds
  double dur;          ///< >= 0 for complete ('X') events, else -1
  SpanId id;           ///< span events: own id; flow events: arrow binding
  SpanId parent;       ///< span events: enclosing span's id
  SpanId span;         ///< cost events: span this interval belongs to
  std::uint32_t lane;  ///< rendered as the Chrome tid (node/instance id)
  NameId cat;
  NameId name;
  std::uint32_t args_at;
  std::uint32_t arg_count;
  char phase;  ///< 'X' complete, 'i' instant, 's'/'f' flow start/finish
};
static_assert(std::is_trivially_copyable_v<TraceEvent> &&
              std::is_trivially_default_constructible_v<TraceEvent> &&
              sizeof(TraceEvent) <= 64);
static_assert(std::is_trivially_copyable_v<TraceArg> &&
              std::is_trivially_default_constructible_v<TraceArg>);

/// std::allocator, except that sizing a vector default-initializes its
/// elements, which for TraceEvent and TraceArg writes nothing: the trace
/// reader sizes its arrays at once, and each part then writes (and pages
/// in) its own slice on its own thread. Copies construct as usual
/// (allocator_traits falls back to std::construct_at).
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

/// Events with the strings and args they refer to: what Tracer::events()
/// and parse_trace_jsonl() return and analyze_critical_paths() reads. One
/// vector of events, one of args and one name table, whatever the count.
struct Trace {
  NameTable names;
  UninitVector<TraceArg> args;
  UninitVector<TraceEvent> events;

  std::string_view str(NameId id) const { return names.str(id); }
  std::span<const TraceArg> args_of(const TraceEvent& ev) const {
    return {args.data() + ev.args_at, ev.arg_count};
  }
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
                     SpanId parent, TraceArgs args = {});

  /// A leaf cost interval (service time or queue wait) attributed to the
  /// enclosing span `span`. Suppressed (and counted) when that span is
  /// sampled out.
  void complete_in(double ts, double dur, std::uint32_t lane,
                   std::string_view cat, std::string_view name, SpanId span,
                   TraceArgs args = {});

  void instant(double ts, std::uint32_t lane, std::string_view cat,
               std::string_view name, TraceArgs args = {});

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

  /// Events currently retained, oldest first, with a copy of the name
  /// table and their args in one array. Built from the ring on each call;
  /// prefer jsonl()/chrome_json() for exports.
  Trace events() const;
  std::size_t size() const {
    return count_ < capacity_ ? static_cast<std::size_t>(count_) : capacity_;
  }
  /// Drops recorded events, their args and names, and resets drop counters
  /// and span ids. Ring capacity and the sampling config survive.
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
  /// kRingChunk slots of the ring (the last chunk holds what is left of
  /// the cap), with the args of the events in them. Pass p over the ring
  /// appends its args to args[p % 2], which starts over each time a pass
  /// enters the chunk: the events of pass p - 1 that the chunk still holds
  /// keep theirs in the other arena, and pass p - 2's are all gone.
  struct Chunk {
    UninitVector<TraceEvent> events;
    UninitVector<TraceArg> args[2];
  };

  TraceEvent& push(double ts, double dur, char phase, std::uint32_t lane,
                   std::string_view cat, std::string_view name,
                   TraceArgs args);
  void add_chunk();
  void ensure_sampled_slot(SpanId id);
  void reset_ring();
  std::string render(bool chrome, std::size_t parts) const;
  /// Calls fn(event, its first arg) on retained events [from, to), counted
  /// from the oldest.
  template <typename Fn>
  void for_each_retained(std::size_t from, std::size_t to, Fn&& fn) const {
    const std::uint64_t first = count_ - size() + from;
    std::uint64_t pass = first / capacity_;
    std::size_t slot = static_cast<std::size_t>(first - pass * capacity_);
    for (std::size_t i = from; i < to; ++i) {
      const Chunk& chunk = chunks_[slot / kRingChunk];
      const TraceEvent& ev = chunk.events[slot % kRingChunk];
      fn(ev, chunk.args[pass & 1].data() + ev.args_at);
      if (++slot == capacity_) {
        slot = 0;
        ++pass;
      }
    }
  }

  bool enabled_ = false;
  SpanId last_id_ = 0;

  // Ring sink. Event number n lives in slot n % capacity_, which is entry
  // slot % kRingChunk of chunks_[slot / kRingChunk]; chunks_ gains one
  // chunk each time the first pass reaches a chunk boundary. arg_end_ is
  // where the next event's args go in the current chunk's arena.
  std::size_t capacity_ = kDefaultRingCapacity;
  std::uint64_t count_ = 0;  ///< events accepted (monotone)
  std::uint64_t dropped_ring_ = 0;
  std::vector<Chunk> chunks_;
  std::size_t arg_end_ = 0;
  NameTable names_;

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

/// Reads a jsonl() export back into a Trace, one event per line that is not blank
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
/// each part then parses its lines into its own slice of it, interning
/// strings into a name table of its own (a string without escapes straight
/// from its view into the line) and appending args to an arena of its own.
/// The caller then interns the parts' tables into part 0's in part order,
/// which gives every string the id of its first appearance in the text,
/// and each part moves its args into place and maps its ids. The first
/// malformed line in file order is reported, so every k gives the same
/// result; the `parts` overload fixes k (clamped to [1, text.size()]) for
/// tests.
Result<Trace> parse_trace_jsonl(std::string_view text);
Result<Trace> parse_trace_jsonl(std::string_view text, std::size_t parts);

}  // namespace vmstorm::obs
