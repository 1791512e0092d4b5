#include "obs/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"

namespace vmstorm::obs {

TraceArg TraceArg::str(std::string key, std::string value) {
  TraceArg a;
  a.key = std::move(key);
  a.kind = Kind::kString;
  a.s = std::move(value);
  return a;
}

TraceArg TraceArg::uint(std::string key, std::uint64_t value) {
  TraceArg a;
  a.key = std::move(key);
  a.kind = Kind::kUint;
  a.u = value;
  return a;
}

TraceArg TraceArg::num(std::string key, double value) {
  TraceArg a;
  a.key = std::move(key);
  a.kind = Kind::kDouble;
  a.d = value;
  return a;
}

void Tracer::add_chunk() {
  // Construct + swap, not push_back/resize: the ring is on the engine's hot
  // path, where vmlint's hot-path-alloc rule keeps growth calls out. The
  // table moves only chunk handles, so no recorded event ever moves.
  const std::size_t first = chunks_.size() * kRingChunk;
  std::vector<TraceEvent> chunk(std::min(kRingChunk, capacity_ - first));
  std::vector<std::vector<TraceEvent>> table(chunks_.size() + 1);
  std::move(chunks_.begin(), chunks_.end(), table.begin());
  table.back().swap(chunk);
  chunks_.swap(table);
}

TraceEvent& Tracer::push(double ts, double dur, char phase, std::uint32_t lane,
                         std::string_view cat, std::string_view name,
                         std::vector<TraceArg> args) {
  const double t0 = profiler_ != nullptr ? SelfProfiler::wall_now() : 0.0;
  const std::size_t slot = static_cast<std::size_t>(count_ % capacity_);
  if (count_ < capacity_) {
    if (slot % kRingChunk == 0) add_chunk();
  } else {
    ++dropped_ring_;  // overwriting the oldest event
  }
  TraceEvent& ev = chunks_[slot / kRingChunk][slot % kRingChunk];
  ev.ts = ts;
  ev.dur = dur;
  ev.phase = phase;
  ev.lane = lane;
  ev.id = 0;
  ev.parent = 0;
  ev.span = 0;
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args);
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

void Tracer::set_ring_capacity(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  count_ = 0;
  dropped_ring_ = 0;
  std::vector<std::vector<TraceEvent>> empty;
  chunks_.swap(empty);
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
                           SpanId id, SpanId parent,
                           std::vector<TraceArg> args) {
  if (!enabled_) return;
  if (!span_sampled(id)) {
    ++dropped_sampling_;
    return;
  }
  TraceEvent& ev = push(ts, dur, 'X', lane, cat, name, std::move(args));
  ev.id = id;
  ev.parent = parent;
}

void Tracer::complete_in(double ts, double dur, std::uint32_t lane,
                         std::string_view cat, std::string_view name,
                         SpanId span, std::vector<TraceArg> args) {
  if (!enabled_) return;
  if (span != 0 && !span_sampled(span)) {
    ++dropped_sampling_;
    return;
  }
  TraceEvent& ev = push(ts, dur, 'X', lane, cat, name, std::move(args));
  ev.span = span;
}

void Tracer::instant(double ts, std::uint32_t lane, std::string_view cat,
                     std::string_view name, std::vector<TraceArg> args) {
  if (!enabled_) return;
  push(ts, -1, 'i', lane, cat, name, std::move(args));
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
  std::vector<std::vector<TraceEvent>> empty;
  chunks_.swap(empty);
  count_ = 0;
  dropped_ring_ = 0;
  dropped_sampling_ = 0;
  std::vector<std::uint8_t> no_bits;
  sampled_bits_.swap(no_bits);
  last_id_ = 0;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out(size());
  std::size_t i = 0;
  for_each_retained(0, out.size(),
                    [&](const TraceEvent& ev) { out[i++] = ev; });
  return out;
}

namespace {

void write_string(std::string_view s, std::string* out) {
  *out += '"';
  json_escape(s, out);
  *out += '"';
}

/// Appends one event as a JSON object: a jsonl() line without its newline,
/// or one element of chrome_json()'s traceEvents array. Keys are written as
/// literals; values are escaped and numbers formatted as JsonWriter would.
void write_event(const TraceEvent& ev, bool chrome, std::string* out) {
  *out += "{\"name\":";
  write_string(ev.name, out);
  *out += ",\"cat\":";
  write_string(ev.cat, out);
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
  if (!ev.args.empty()) {
    char sep = '{';
    *out += ",\"args\":";
    for (const TraceArg& a : ev.args) {
      *out += sep;
      sep = ',';
      write_string(a.key, out);
      *out += ':';
      switch (a.kind) {
        case TraceArg::Kind::kString: write_string(a.s, out); break;
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

/// Appends the args object's members to *args.
Status read_args(JsonLexer& lx, std::vector<TraceArg>* args) {
  if (!lx.consume('{')) return lx.fail("args must be an object");
  if (lx.consume('}')) return Status::ok();
  do {
    TraceArg& a = args->emplace_back();
    VMSTORM_RETURN_IF_ERROR(lx.read_string(&a.key));
    if (!lx.consume(':')) return lx.fail("expected ':' after key");
    if (lx.peek() == '"') {
      VMSTORM_RETURN_IF_ERROR(lx.read_string(&a.s));
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
/// other key's value skipped. The args are read into *arg_buf (cleared
/// first) and then moved into an exact-size ev->args.
Status read_event(JsonLexer& lx, std::vector<TraceArg>* arg_buf,
                  TraceEvent* ev) {
  arg_buf->clear();
  if (!lx.consume('{')) return lx.fail("expected '{'");
  if (!lx.consume('}')) {
    std::string key;
    JsonLexer::Number n;
    std::uint64_t id = 0;
    do {
      VMSTORM_RETURN_IF_ERROR(lx.read_string(&key));
      if (!lx.consume(':')) return lx.fail("expected ':' after key");
      switch (field_of(key)) {
        case Field::kName:
          VMSTORM_RETURN_IF_ERROR(lx.read_string(&ev->name));
          break;
        case Field::kCat:
          VMSTORM_RETURN_IF_ERROR(lx.read_string(&ev->cat));
          break;
        case Field::kPh:
          VMSTORM_RETURN_IF_ERROR(lx.read_string(&key));
          if (key.size() != 1) return lx.fail("ph must be one character");
          ev->phase = key[0];
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
          VMSTORM_RETURN_IF_ERROR(read_id(lx, key, &id));
          if (id > UINT32_MAX) return lx.fail("lane out of range");
          ev->lane = static_cast<std::uint32_t>(id);
          break;
        case Field::kId:
          VMSTORM_RETURN_IF_ERROR(read_id(lx, key, &ev->id));
          break;
        case Field::kParent:
          VMSTORM_RETURN_IF_ERROR(read_id(lx, key, &ev->parent));
          break;
        case Field::kSpan:
          VMSTORM_RETURN_IF_ERROR(read_id(lx, key, &ev->span));
          break;
        case Field::kArgs:
          VMSTORM_RETURN_IF_ERROR(read_args(lx, arg_buf));
          break;
        case Field::kOther:
          VMSTORM_RETURN_IF_ERROR(read_json_value(lx).status());
          break;
      }
    } while (lx.consume(','));
    if (!lx.consume('}')) return lx.fail("expected ',' or '}'");
  }
  if (!lx.at_end()) return lx.fail("trailing bytes after event object");
  ev->args.assign(std::make_move_iterator(arg_buf->begin()),
                  std::make_move_iterator(arg_buf->end()));
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
    for_each_retained(r.begin, r.end, [&](const TraceEvent& ev) {
      if (chrome && i++ != 0) text += ',';
      write_event(ev, chrome, &text);
      if (!chrome) text += '\n';
    });
    if (p != 0) rendered[p] = std::move(local);
  });
  for (const std::string& part : rendered) out += part;
  if (chrome) out += "]}";
  return out;
}

Result<std::vector<TraceEvent>> parse_trace_jsonl(std::string_view text) {
  return parse_trace_jsonl(text, part_count(text.size(), kParsePart));
}

Result<std::vector<TraceEvent>> parse_trace_jsonl(std::string_view text,
                                                  std::size_t parts) {
  parts = std::clamp<std::size_t>(parts, 1,
                                  std::max<std::size_t>(text.size(), 1));
  struct Part {
    std::string_view text;  ///< whole lines; all but the last end in '\n'
    std::size_t lines = 0;
    std::size_t events = 0;       ///< non-blank lines
    std::size_t first_line = 0;   ///< lines in the parts before this one
    std::size_t first_event = 0;  ///< events in the parts before this one
    Status error;                 ///< the part's first malformed line
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

  std::vector<TraceEvent> events(total);
  fork_join(parts, [&part, &events](std::size_t p) {
    Part& pt = part[p];
    std::vector<TraceArg> arg_buf;
    std::size_t line_no = pt.first_line;
    TraceEvent* ev = events.data() + pt.first_event;
    for_each_line(pt.text, [&](std::string_view line) {
      ++line_no;
      if (blank_line(line)) return true;
      JsonLexer lx(line);
      const Status st = read_event(lx, &arg_buf, ev++);
      if (st.is_ok()) return true;
      pt.error = Status(st.code(), "line " + std::to_string(line_no) + ": " +
                                       st.message());
      return false;
    });
  });
  for (const Part& pt : part) {
    if (!pt.error.is_ok()) return pt.error;
  }
  return events;
}

}  // namespace vmstorm::obs
