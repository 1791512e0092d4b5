#include "obs/trace.hpp"

#include <algorithm>
#include <cstdint>

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

void Tracer::grow_ring() {
  // Amortized doubling toward the cap, without push_back/reserve: the ring
  // is on the engine's hot path, where vmlint's hot-path-alloc rule keeps
  // per-event allocation calls out. Slot construction + move + swap is the
  // sanctioned growth idiom (O(1) amortized, zero steady-state allocation).
  std::size_t next = ring_.empty() ? 64 : ring_.size() * 2;
  if (next > capacity_) next = capacity_;
  std::vector<TraceEvent> bigger(next);
  std::move(ring_.begin(), ring_.end(), bigger.begin());
  ring_.swap(bigger);
}

TraceEvent& Tracer::push(double ts, double dur, char phase, std::uint32_t lane,
                         std::string_view cat, std::string_view name,
                         std::vector<TraceArg> args) {
  const double t0 = profiler_ != nullptr ? SelfProfiler::wall_now() : 0.0;
  const std::size_t slot = static_cast<std::size_t>(count_ % capacity_);
  if (slot >= ring_.size()) grow_ring();
  if (count_ >= capacity_) ++dropped_ring_;  // overwriting the oldest event
  TraceEvent& ev = ring_[slot];
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
  std::vector<TraceEvent> empty;
  ring_.swap(empty);
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
  std::vector<TraceEvent> empty;
  ring_.swap(empty);
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
  for_each_retained([&](const TraceEvent& ev) { out[i++] = ev; });
  return out;
}

namespace {

void write_event(JsonWriter& w, const TraceEvent& ev, bool chrome) {
  w.begin_object();
  w.key("name").value(ev.name);
  w.key("cat").value(ev.cat);
  w.key("ph").value(std::string_view(&ev.phase, 1));
  if (chrome) {
    // Chrome expects microseconds; simulated seconds scale cleanly.
    w.key("ts").value(ev.ts * 1e6);
    if (ev.phase == 'X') w.key("dur").value(ev.dur * 1e6);
    w.key("pid").value(std::uint64_t{0});
    w.key("tid").value(static_cast<std::uint64_t>(ev.lane));
  } else {
    w.key("ts").value(ev.ts);
    if (ev.phase == 'X') w.key("dur").value(ev.dur);
    w.key("lane").value(static_cast<std::uint64_t>(ev.lane));
  }
  if (ev.id != 0) w.key("id").value(ev.id);
  if (ev.parent != 0) w.key("parent").value(ev.parent);
  if (ev.span != 0) w.key("span").value(ev.span);
  // Bind the arrow head to the enclosing slice (classic flow semantics).
  if (chrome && ev.phase == 'f') w.key("bp").value(std::string_view("e"));
  if (!ev.args.empty()) {
    w.key("args").begin_object();
    for (const TraceArg& a : ev.args) {
      w.key(a.key);
      switch (a.kind) {
        case TraceArg::Kind::kString: w.value(a.s); break;
        case TraceArg::Kind::kUint: w.value(a.u); break;
        case TraceArg::Kind::kDouble: w.value(a.d); break;
      }
    }
    w.end_object();
  }
  w.end_object();
}

Status read_args(JsonLexer& lx, std::vector<TraceArg>* args) {
  if (!lx.consume('{')) return lx.fail("args must be an object");
  if (lx.consume('}')) return Status::ok();
  std::string key;
  do {
    VMSTORM_RETURN_IF_ERROR(lx.read_string(&key));
    if (!lx.consume(':')) return lx.fail("expected ':' after key");
    if (lx.peek() == '"') {
      std::string s;
      VMSTORM_RETURN_IF_ERROR(lx.read_string(&s));
      args->push_back(TraceArg::str(std::move(key), std::move(s)));
      continue;
    }
    JsonLexer::Number n;
    VMSTORM_RETURN_IF_ERROR(lx.read_number(&n));
    args->push_back(n.is_uint ? TraceArg::uint(std::move(key), n.uint)
                              : TraceArg::num(std::move(key), n.value));
  } while (lx.consume(','));
  if (!lx.consume('}')) return lx.fail("expected ',' or '}' in args");
  return Status::ok();
}

/// Reads one jsonl() line into *ev: the keys write_event() emits, with any
/// other key's value skipped.
Status read_event(JsonLexer& lx, TraceEvent* ev) {
  if (!lx.consume('{')) return lx.fail("expected '{'");
  if (!lx.consume('}')) {
    std::string key;
    JsonLexer::Number n;
    do {
      VMSTORM_RETURN_IF_ERROR(lx.read_string(&key));
      if (!lx.consume(':')) return lx.fail("expected ':' after key");
      if (key == "name") {
        VMSTORM_RETURN_IF_ERROR(lx.read_string(&ev->name));
      } else if (key == "cat") {
        VMSTORM_RETURN_IF_ERROR(lx.read_string(&ev->cat));
      } else if (key == "ph") {
        VMSTORM_RETURN_IF_ERROR(lx.read_string(&key));
        if (key.size() != 1) return lx.fail("ph must be one character");
        ev->phase = key[0];
      } else if (key == "args") {
        VMSTORM_RETURN_IF_ERROR(read_args(lx, &ev->args));
      } else if (key == "ts" || key == "dur" || key == "lane" || key == "id" ||
                 key == "parent" || key == "span") {
        VMSTORM_RETURN_IF_ERROR(lx.read_number(&n));
        if (key == "lane" && n.uint > UINT32_MAX) {
          return lx.fail("lane out of range");
        }
        if (key == "ts") ev->ts = n.value;
        else if (key == "dur") ev->dur = n.value;
        else if (key == "lane") ev->lane = static_cast<std::uint32_t>(n.uint);
        else if (key == "id") ev->id = n.uint;
        else if (key == "parent") ev->parent = n.uint;
        else ev->span = n.uint;
      } else {
        VMSTORM_RETURN_IF_ERROR(read_json_value(lx).status());
      }
    } while (lx.consume(','));
    if (!lx.consume('}')) return lx.fail("expected ',' or '}'");
  }
  if (!lx.at_end()) return lx.fail("trailing bytes after event object");
  return Status::ok();
}

}  // namespace

std::string Tracer::jsonl() const {
  std::string out;
  for_each_retained([&out](const TraceEvent& ev) {
    JsonWriter w;
    write_event(w, ev, /*chrome=*/false);
    out += w.str();
    out += '\n';
  });
  return out;
}

std::string Tracer::chrome_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for_each_retained(
      [&w](const TraceEvent& ev) { write_event(w, ev, /*chrome=*/true); });
  w.end_array();
  w.end_object();
  return w.take();
}

Result<std::vector<TraceEvent>> parse_trace_jsonl(std::string_view text) {
  std::vector<TraceEvent> events;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonLexer lx(line);
    TraceEvent& ev = events.emplace_back();
    Status st = read_event(lx, &ev);
    if (!st.is_ok()) {
      return Status(st.code(), "line " + std::to_string(line_no) + ": " +
                                   st.message());
    }
  }
  return events;
}

}  // namespace vmstorm::obs
