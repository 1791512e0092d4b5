#include "obs/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"

namespace vmstorm::obs {

namespace {

/// Makes *buf at least `need` elements long, doubling from at least
/// `floor`, by construct + swap (never push_back or resize: vmlint's
/// hot-path-alloc rule keeps growth calls off the recording path). The
/// first `used` elements are kept.
template <typename Buffer>
void grow_buffer(Buffer* buf, std::size_t used, std::size_t need,
                 std::size_t floor) {
  if (need <= buf->size()) return;
  std::size_t next = std::max(buf->size() * 2, floor);
  while (next < need) next *= 2;
  Buffer bigger(next, typename Buffer::value_type{});
  std::copy_n(buf->begin(), used, bigger.begin());
  buf->swap(bigger);
}

}  // namespace

NameTable::NameTable() : slots_(32) { add("", key_of("")); }

NameId NameTable::add(std::string_view s, const Key& key) {
  std::string token = "\"";
  json_escape(s, &token);
  token += '"';
  grow_buffer(&text_, text_used_, text_used_ + s.size() + token.size(), 256);
  grow_buffer(&entries_, size_, size_ + 1, 16);
  const NameId id = static_cast<NameId>(size_++);
  Entry& e = entries_[id];
  e.key = key;
  e.at = text_used_;
  e.json_len = static_cast<std::uint32_t>(token.size());
  if (!s.empty()) std::memcpy(text_.data() + text_used_, s.data(), s.size());
  std::memcpy(text_.data() + text_used_ + s.size(), token.data(),
              token.size());
  text_used_ += s.size() + token.size();
  if (2 * size_ > slots_.size()) {
    std::vector<NameId> bigger(slots_.size() * 2);
    slots_.swap(bigger);
    for (NameId i = 0; i < id; ++i) {
      slots_[slot_of(str(i), entries_[i].key)] = i + 1;
    }
  }
  slots_[slot_of(s, key)] = id + 1;
  return id;
}

void Tracer::add_chunk() {
  // Construct + swap, not push_back/resize: the ring is on the engine's hot
  // path, where vmlint's hot-path-alloc rule keeps growth calls out. The
  // table moves only chunk handles, so no recorded event or arg ever moves.
  const std::size_t first = chunks_.size() * kRingChunk;
  UninitVector<TraceEvent> fresh(std::min(kRingChunk, capacity_ - first));
  std::vector<Chunk> table(chunks_.size() + 1);
  std::move(chunks_.begin(), chunks_.end(), table.begin());
  table.back().events.swap(fresh);
  chunks_.swap(table);
}

TraceEvent& Tracer::push(double ts, double dur, char phase, std::uint32_t lane,
                         std::string_view cat, std::string_view name,
                         TraceArgs args) {
  const double t0 = profiler_ != nullptr ? SelfProfiler::wall_now() : 0.0;
  const std::uint64_t pass = count_ / capacity_;
  const std::size_t slot = static_cast<std::size_t>(count_ - pass * capacity_);
  if (slot % kRingChunk == 0) {
    if (pass == 0) add_chunk();
    arg_end_ = 0;  // this pass's arena of the chunk starts over
  }
  if (pass != 0) ++dropped_ring_;  // overwriting the oldest event
  Chunk& chunk = chunks_[slot / kRingChunk];
  TraceEvent& ev = chunk.events[slot % kRingChunk];
  ev.ts = ts;
  ev.dur = dur;
  ev.phase = phase;
  ev.lane = lane;
  ev.id = 0;
  ev.parent = 0;
  ev.span = 0;
  // Interned in the order the writer emits them, so a trace read back from
  // jsonl() numbers its strings as the tracer did.
  ev.name = names_.intern(name);
  ev.cat = names_.intern(cat);
  ev.args_at = static_cast<std::uint32_t>(arg_end_);
  ev.arg_count = static_cast<std::uint32_t>(args.size());
  if (args.size() != 0) {
    UninitVector<TraceArg>& arena = chunk.args[pass & 1];
    grow_buffer(&arena, arg_end_, arg_end_ + args.size(), chunk.events.size());
    for (const TraceArg::View& a : args) {
      TraceArg& out = arena[arg_end_++];
      out.key = names_.intern(a.key);
      out.kind = a.kind;
      out.s = a.kind == TraceArg::Kind::kString ? names_.intern(a.s) : 0;
      out.u = a.u;
      out.d = a.d;
    }
  }
  ++count_;
  if (profiler_ != nullptr) {
    profiler_->charge(SelfProfiler::kTracer, SelfProfiler::wall_now() - t0);
  }
  return ev;
}

SpanId Tracer::new_span(SpanId parent) {
  const SpanId id = ++last_id_;
  if (sampling_active_) {
    ensure_sampled_slot(id);
    // splitmix64 keeps consecutive root ids from correlating.
    const bool keep =
        parent == 0
            ? (static_cast<double>(mix64(sample_seed_ ^ id) >> 11) *
               0x1.0p-53) < sample_rate_
            : span_sampled(parent);
    sampled_bits_[id] = keep ? 1 : 0;
  }
  return id;
}

void Tracer::ensure_sampled_slot(SpanId id) {
  if (id < sampled_bits_.size()) return;
  std::size_t next = sampled_bits_.empty() ? 1024 : sampled_bits_.size();
  while (next <= id) next *= 2;
  // Same growth idiom as the ring (new_span is hot via flow_begin). Absent
  // ids default to "kept", matching span_sampled().
  std::vector<std::uint8_t> bigger(next, 1);
  std::copy(sampled_bits_.begin(), sampled_bits_.end(), bigger.begin());
  sampled_bits_.swap(bigger);
}

void Tracer::reset_ring() {
  count_ = 0;
  dropped_ring_ = 0;
  std::vector<Chunk> no_chunks;
  chunks_.swap(no_chunks);
  arg_end_ = 0;
  names_ = NameTable();
}

void Tracer::set_ring_capacity(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  reset_ring();
}

void Tracer::set_sampling(double rate, std::uint64_t seed) {
  sample_rate_ = std::clamp(rate, 0.0, 1.0);
  sample_seed_ = seed;
  sampling_active_ = sample_rate_ < 1.0;
  if (!sampling_active_) {
    std::vector<std::uint8_t> empty;
    sampled_bits_.swap(empty);
  }
}

void Tracer::complete_span(double ts, double dur, std::uint32_t lane,
                           std::string_view cat, std::string_view name,
                           SpanId id, SpanId parent, TraceArgs args) {
  if (!enabled_) return;
  if (!span_sampled(id)) {
    ++dropped_sampling_;
    return;
  }
  TraceEvent& ev = push(ts, dur, 'X', lane, cat, name, args);
  ev.id = id;
  ev.parent = parent;
}

void Tracer::complete_in(double ts, double dur, std::uint32_t lane,
                         std::string_view cat, std::string_view name,
                         SpanId span, TraceArgs args) {
  if (!enabled_) return;
  if (span != 0 && !span_sampled(span)) {
    ++dropped_sampling_;
    return;
  }
  TraceEvent& ev = push(ts, dur, 'X', lane, cat, name, args);
  ev.span = span;
}

void Tracer::instant(double ts, std::uint32_t lane, std::string_view cat,
                     std::string_view name, TraceArgs args) {
  if (!enabled_) return;
  push(ts, -1, 'i', lane, cat, name, args);
}

SpanId Tracer::flow_begin(double ts, std::uint32_t lane, std::string_view name,
                          SpanId owner_span) {
  if (!enabled_) return 0;
  if (owner_span != 0 && !span_sampled(owner_span)) {
    // The waiter's span tree is sampled out; both arrow halves vanish with
    // it (flow_end(0) is a no-op), keeping the export self-consistent.
    ++dropped_sampling_;
    return 0;
  }
  const SpanId id = new_span(owner_span);
  push(ts, -1, 's', lane, "flow", name, {}).id = id;
  return id;
}

void Tracer::flow_end(double ts, std::uint32_t lane, std::string_view name,
                      SpanId id) {
  if (!enabled_ || id == 0) return;
  push(ts, -1, 'f', lane, "flow", name, {}).id = id;
}

void Tracer::clear() {
  reset_ring();
  dropped_sampling_ = 0;
  std::vector<std::uint8_t> no_bits;
  sampled_bits_.swap(no_bits);
  last_id_ = 0;
}

Trace Tracer::events() const {
  Trace out;
  out.names = names_;
  const std::size_t n = size();
  std::size_t args = 0;
  for_each_retained(0, n, [&args](const TraceEvent& ev, const TraceArg*) {
    args += ev.arg_count;
  });
  out.events.resize(n);
  out.args.resize(args);
  TraceEvent* to = out.events.data();
  args = 0;
  for_each_retained(0, n, [&](const TraceEvent& ev, const TraceArg* from) {
    *to = ev;
    to->args_at = static_cast<std::uint32_t>(args);
    std::copy_n(from, ev.arg_count, out.args.data() + args);
    args += ev.arg_count;
    ++to;
  });
  return out;
}

namespace {

void write_string(std::string_view s, std::string* out) {
  *out += '"';
  json_escape(s, out);
  *out += '"';
}

/// Appends one event, whose args start at `args`, as a JSON object: a
/// jsonl() line without its newline, or one element of chrome_json()'s
/// traceEvents array. Keys are written as literals, strings as their
/// tokens from `names`, and numbers formatted as JsonWriter would.
void write_event(const TraceEvent& ev, const TraceArg* args,
                 const NameTable& names, bool chrome, std::string* out) {
  *out += "{\"name\":";
  *out += names.json(ev.name);
  *out += ",\"cat\":";
  *out += names.json(ev.cat);
  *out += ",\"ph\":";
  write_string(std::string_view(&ev.phase, 1), out);
  // Chrome expects microseconds; simulated seconds scale cleanly.
  *out += ",\"ts\":";
  json_append_number(chrome ? ev.ts * 1e6 : ev.ts, out);
  if (ev.phase == 'X') {
    *out += ",\"dur\":";
    json_append_number(chrome ? ev.dur * 1e6 : ev.dur, out);
  }
  *out += chrome ? ",\"pid\":0,\"tid\":" : ",\"lane\":";
  json_append_number(std::uint64_t{ev.lane}, out);
  const auto write_id = [out](const char* key, SpanId id) {
    if (id == 0) return;
    *out += key;
    json_append_number(id, out);
  };
  write_id(",\"id\":", ev.id);
  write_id(",\"parent\":", ev.parent);
  write_id(",\"span\":", ev.span);
  // Bind the arrow head to the enclosing slice (classic flow semantics).
  if (chrome && ev.phase == 'f') *out += ",\"bp\":\"e\"";
  if (ev.arg_count != 0) {
    char sep = '{';
    *out += ",\"args\":";
    for (const TraceArg& a : std::span(args, ev.arg_count)) {
      *out += sep;
      sep = ',';
      *out += names.json(a.key);
      *out += ':';
      switch (a.kind) {
        case TraceArg::Kind::kString: *out += names.json(a.s); break;
        case TraceArg::Kind::kUint: json_append_number(a.u, out); break;
        case TraceArg::Kind::kDouble: json_append_number(a.d, out); break;
      }
    }
    *out += '}';
  }
  *out += '}';
}

/// The keys write_event() emits in jsonl(), and kOther for any other.
enum class Field {
  kName, kCat, kPh, kTs, kDur, kLane, kId, kParent, kSpan, kArgs, kOther
};

/// Matches a key by its length, then by its bytes.
Field field_of(std::string_view key) {
  switch (key.size()) {
    case 2:
      if (key == "ts") return Field::kTs;
      if (key == "id") return Field::kId;
      if (key == "ph") return Field::kPh;
      break;
    case 3:
      if (key == "cat") return Field::kCat;
      if (key == "dur") return Field::kDur;
      break;
    case 4:
      if (key == "name") return Field::kName;
      if (key == "lane") return Field::kLane;
      if (key == "span") return Field::kSpan;
      if (key == "args") return Field::kArgs;
      break;
    case 6:
      if (key == "parent") return Field::kParent;
      break;
    default: break;
  }
  return Field::kOther;
}

/// One reader part's own strings and args, merged after every part is read.
struct PartTables {
  NameTable names;
  UninitVector<TraceArg> args;
  std::string scratch;  ///< the decoded form of a string with an escape
};

/// Reads a string token and interns it: from its view into the line, or
/// from *t.scratch when it holds an escape.
Status read_name(JsonLexer& lx, PartTables& t, NameId* out) {
  std::string_view s;
  VMSTORM_RETURN_IF_ERROR(lx.read_string(&s, &t.scratch));
  *out = t.names.intern(s);
  return Status::ok();
}

/// Appends the args object's members to t.args.
Status read_args(JsonLexer& lx, PartTables& t) {
  if (!lx.consume('{')) return lx.fail("args must be an object");
  if (lx.consume('}')) return Status::ok();
  do {
    TraceArg& a = t.args.emplace_back(TraceArg{});
    VMSTORM_RETURN_IF_ERROR(read_name(lx, t, &a.key));
    if (!lx.consume(':')) return lx.fail("expected ':' after key");
    if (lx.peek() == '"') {
      VMSTORM_RETURN_IF_ERROR(read_name(lx, t, &a.s));
      continue;
    }
    JsonLexer::Number n;
    VMSTORM_RETURN_IF_ERROR(lx.read_number(&n));
    if (n.is_uint) {
      a.kind = TraceArg::Kind::kUint;
      a.u = n.uint;
    } else {
      a.kind = TraceArg::Kind::kDouble;
      a.d = n.value;
    }
  } while (lx.consume(','));
  if (!lx.consume('}')) return lx.fail("expected ',' or '}' in args");
  return Status::ok();
}

/// Reads a lane, id, parent or span value: a non-negative integer token.
Status read_id(JsonLexer& lx, std::string_view key, std::uint64_t* out) {
  JsonLexer::Number n;
  VMSTORM_RETURN_IF_ERROR(lx.read_number(&n));
  if (!n.is_uint) {
    return lx.fail(std::string(key) + " must be a non-negative integer");
  }
  *out = n.uint;
  return Status::ok();
}

/// Reads one jsonl() line into *ev: the keys write_event() emits, with any
/// other key's value skipped. Strings are interned into t.names and args
/// appended to t.args (an "args" key given twice appends both objects).
Status read_event(JsonLexer& lx, PartTables& t, TraceEvent* ev) {
  *ev = TraceEvent{};
  ev->dur = -1;
  ev->phase = 'i';
  const std::size_t first_arg = t.args.size();
  if (!lx.consume('{')) return lx.fail("expected '{'");
  if (!lx.consume('}')) {
    std::string_view key;
    std::string_view ph;
    JsonLexer::Number n;
    std::uint64_t id = 0;
    do {
      VMSTORM_RETURN_IF_ERROR(lx.read_string(&key, &t.scratch));
      if (!lx.consume(':')) return lx.fail("expected ':' after key");
      const Field field = field_of(key);
      switch (field) {
        case Field::kName:
          VMSTORM_RETURN_IF_ERROR(read_name(lx, t, &ev->name));
          break;
        case Field::kCat:
          VMSTORM_RETURN_IF_ERROR(read_name(lx, t, &ev->cat));
          break;
        case Field::kPh:
          VMSTORM_RETURN_IF_ERROR(lx.read_string(&ph, &t.scratch));
          if (ph.size() != 1) return lx.fail("ph must be one character");
          ev->phase = ph[0];
          break;
        case Field::kTs:
          VMSTORM_RETURN_IF_ERROR(lx.read_number(&n));
          ev->ts = n.value;
          break;
        case Field::kDur:
          VMSTORM_RETURN_IF_ERROR(lx.read_number(&n));
          ev->dur = n.value;
          break;
        case Field::kLane:
          VMSTORM_RETURN_IF_ERROR(read_id(lx, "lane", &id));
          if (id > UINT32_MAX) return lx.fail("lane out of range");
          ev->lane = static_cast<std::uint32_t>(id);
          break;
        case Field::kId:
          VMSTORM_RETURN_IF_ERROR(read_id(lx, "id", &ev->id));
          break;
        case Field::kParent:
          VMSTORM_RETURN_IF_ERROR(read_id(lx, "parent", &ev->parent));
          break;
        case Field::kSpan:
          VMSTORM_RETURN_IF_ERROR(read_id(lx, "span", &ev->span));
          break;
        case Field::kArgs:
          VMSTORM_RETURN_IF_ERROR(read_args(lx, t));
          break;
        case Field::kOther:
          VMSTORM_RETURN_IF_ERROR(read_json_value(lx).status());
          break;
      }
    } while (lx.consume(','));
    if (!lx.consume('}')) return lx.fail("expected ',' or '}'");
  }
  if (!lx.at_end()) return lx.fail("trailing bytes after event object");
  // Offsets into this part's arena; the merge moves them into place.
  ev->args_at = static_cast<std::uint32_t>(first_arg);
  ev->arg_count = static_cast<std::uint32_t>(t.args.size() - first_arg);
  return Status::ok();
}

/// True when `line` holds only the bytes JsonLexer skips as whitespace
/// (space, tab, '\r'): a blank line, which the reader skips. An event line
/// is told apart by its first byte, '{'.
bool blank_line(std::string_view line) {
  if (!line.empty() && line[0] == '{') return false;
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

/// Calls fn(line) on each line of `text` in order: the bytes before each
/// '\n', then what follows the last one if anything does. Stops when fn
/// returns false.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    if (!fn(text.substr(pos, nl - pos))) return;
    pos = nl + 1;
  }
}

}  // namespace

std::string Tracer::jsonl() const {
  return render(/*chrome=*/false, part_count(size(), kExportPart));
}

std::string Tracer::jsonl(std::size_t parts) const {
  return render(/*chrome=*/false, parts);
}

std::string Tracer::chrome_json() const {
  return render(/*chrome=*/true, part_count(size(), kExportPart));
}

std::string Tracer::chrome_json(std::size_t parts) const {
  return render(/*chrome=*/true, parts);
}

std::string Tracer::render(bool chrome, std::size_t parts) const {
  const std::size_t n = size();
  parts = std::clamp<std::size_t>(parts, 1, std::max<std::size_t>(n, 1));
  std::string out =
      chrome ? "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" : "";
  // The traced fig4/fig5 run averages 124 bytes a line (131 in Chrome
  // form), so these reservations hold a typical part in one allocation.
  const std::size_t per_event = chrome ? 144 : 128;
  out.reserve(n * per_event);
  // Part 0 renders straight into `out`; the others into strings of their
  // own (adjacent strings in one vector would share their length fields'
  // cache lines between threads), moved out once done.
  std::vector<std::string> rendered(parts);
  fork_join(parts, [&](std::size_t p) {
    const PartRange r = part_range(n, parts, p);
    std::string local;
    std::string& text = p == 0 ? out : local;
    if (p != 0) local.reserve((r.end - r.begin) * per_event);
    std::size_t i = r.begin;
    for_each_retained(r.begin, r.end,
                      [&](const TraceEvent& ev, const TraceArg* args) {
      if (chrome && i++ != 0) text += ',';
      write_event(ev, args, names_, chrome, &text);
      if (!chrome) text += '\n';
    });
    if (p != 0) rendered[p] = std::move(local);
  });
  for (const std::string& part : rendered) out += part;
  if (chrome) out += "]}";
  return out;
}

Result<Trace> parse_trace_jsonl(std::string_view text) {
  return parse_trace_jsonl(text, part_count(text.size(), kParsePart));
}

Result<Trace> parse_trace_jsonl(std::string_view text, std::size_t parts) {
  parts = std::clamp<std::size_t>(parts, 1,
                                  std::max<std::size_t>(text.size(), 1));
  struct Part {
    std::string_view text;  ///< whole lines; all but the last end in '\n'
    std::size_t lines = 0;
    std::size_t events = 0;       ///< non-blank lines
    std::size_t first_line = 0;   ///< lines in the parts before this one
    std::size_t first_event = 0;  ///< events in the parts before this one
    std::size_t first_arg = 0;    ///< args in the parts before this one
    Status error;                 ///< the part's first malformed line
    PartTables tables;
    std::vector<NameId> ids;  ///< the merged table's id of each local one
  };
  std::vector<Part> part(parts);
  std::size_t lo = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    std::size_t hi = text.size();
    if (p + 1 < parts) {
      const std::size_t share = part_range(text.size(), parts, p + 1).begin;
      hi = text.find('\n', std::max(lo, share));
      hi = hi == std::string_view::npos ? text.size() : hi + 1;
    }
    part[p].text = text.substr(lo, hi - lo);
    lo = hi;
  }

  fork_join(parts, [&part](std::size_t p) {
    std::size_t lines = 0;
    std::size_t events = 0;
    for_each_line(part[p].text, [&](std::string_view line) {
      ++lines;
      events += blank_line(line) ? 0 : 1;
      return true;
    });
    part[p].lines = lines;
    part[p].events = events;
  });
  std::size_t lines = 0;
  std::size_t total = 0;
  for (Part& pt : part) {
    pt.first_line = lines;
    pt.first_event = total;
    lines += pt.lines;
    total += pt.events;
  }

  Trace trace;
  trace.events.resize(total);
  fork_join(parts, [&part, &trace](std::size_t p) {
    Part& pt = part[p];
    std::size_t line_no = pt.first_line;
    TraceEvent* ev = trace.events.data() + pt.first_event;
    for_each_line(pt.text, [&](std::string_view line) {
      ++line_no;
      if (blank_line(line)) return true;
      JsonLexer lx(line);
      const Status st = read_event(lx, pt.tables, ev++);
      if (st.is_ok()) return true;
      pt.error = Status(st.code(), "line " + std::to_string(line_no) + ": " +
                                       st.message());
      return false;
    });
  });
  std::size_t args = 0;
  for (Part& pt : part) {
    if (!pt.error.is_ok()) return pt.error;
    pt.first_arg = args;
    args += pt.tables.args.size();
  }
  if (args > std::numeric_limits<std::uint32_t>::max()) {
    return invalid_argument("trace holds more than 2^32 - 1 args");
  }

  // Part 0's table and arena become the trace's. Interning the other
  // parts' strings in part order numbers each string by its first
  // appearance in the text; then each later part copies its args into
  // place and maps its ids and offsets.
  trace.names = std::move(part[0].tables.names);
  trace.args = std::move(part[0].tables.args);
  trace.args.resize(args);
  for (std::size_t p = 1; p < parts; ++p) {
    Part& pt = part[p];
    pt.ids.resize(pt.tables.names.size());
    for (NameId id = 0; id < pt.ids.size(); ++id) {
      pt.ids[id] = trace.names.intern(pt.tables.names.str(id));
    }
  }
  fork_join(parts, [&part, &trace](std::size_t p) {
    if (p == 0) return;  // already in place
    Part& pt = part[p];
    TraceArg* to = trace.args.data() + pt.first_arg;
    std::copy(pt.tables.args.begin(), pt.tables.args.end(), to);
    const std::vector<NameId>& ids = pt.ids;
    for (TraceArg& a : std::span(to, pt.tables.args.size())) {
      a.key = ids[a.key];
      a.s = ids[a.s];  // 0 ("") for a number
    }
    for (TraceEvent& ev :
         std::span(trace.events.data() + pt.first_event, pt.events)) {
      ev.cat = ids[ev.cat];
      ev.name = ids[ev.name];
      ev.args_at += static_cast<std::uint32_t>(pt.first_arg);
    }
  });
  return trace;
}

}  // namespace vmstorm::obs
