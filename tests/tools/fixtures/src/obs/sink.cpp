// Fixture: every way a host value can reach a deterministic artifact, plus
// the sanctioned escapes that must stay silent. Marker comments anchor the
// exact-finding-set assertions in tests/tools/test_vmlint.py.
#include "obs/probe.hpp"
#include "common/env.hpp"

#include <cstdlib>

namespace fixture::obs {

struct Gauge {
  void set(double v);
  double last();
};

struct Counter {
  void add(double v);
};

struct Registry {
  Gauge& gauge(const char* name);
  Counter& counter(const char* name);
  Gauge& host_gauge(const char* name);
};

struct Tracer {
  void complete_span(const char* name, double ts) {}
};

// The span scope hands its args to complete_span when it finishes, so a
// host value passed into a span's args reaches the trace through it.
struct SpanScope {
  void finish(const char* name, double arg) {
    tracer_->complete_span(name, arg);  // taint-span-inside
  }
  Tracer* tracer_;
};

struct Report {
  void config(const char* key, double v) {}
};

double blend(int v) { return v * 2.0; }  // clean overload

// The direct cross-TU leak: sample_wall()'s body (and its wall_now source)
// is in probe.cpp; only the summary makes this visible.
void direct_leak(Registry& reg) {
  reg.gauge("engine.wall").set(sample_wall());  // taint-cross-tu
}

// Host values may flow into the host scope — that is what it is for.
void host_scope_ok(Registry& reg) {
  reg.host_gauge("host.wall").set(sample_wall());  // ok-host-scope
}

// Member-store flow: the taint is parked in a field by one method and
// published by another.
struct Probe {
  void tick() { last_ = SelfProfiler::wall_now(); }
  void publish(Registry& reg) {
    reg.gauge("probe.last").set(last_);  // taint-field-store
  }
  double last_ = 0;
};

// Argument flow: the caller passes a tainted value down; the callee's
// parameter-to-sink summary flags the call site, and the entry-tainted
// parameter flags the interior write too.
struct Publisher {
  explicit Publisher(Registry& reg) : g_(reg.gauge("pub")) {}
  void note(double v) {
    g_.set(v);  // taint-note-inside
  }
  Gauge& g_;
};

void pass_down(Publisher& pub) {
  pub.note(sample_wall());  // taint-arg-to-sink
}

double to_millis(double s);  // declared only: unresolved calls are transparent

void transparent_leak(Registry& reg) {
  reg.gauge("wall.ms").set(to_millis(sample_wall()));  // taint-transparent
}

// The PR 7 host/sim split, reproduced: a host_gauge reading re-published
// through a deterministic handle would put wall-clock numbers back into
// the fingerprinted to_json() export.
void hostsplit_regression(Registry& reg) {
  reg.gauge("wall").set(reg.host_gauge("hw").last());  // taint-hostsplit-regress
}

void trace_leak(Tracer& tr) {
  tr.complete_span("span", sample_wall());  // taint-trace-payload
}

void span_args_leak(SpanScope& span) {
  span.finish("span", sample_wall());  // taint-span-args
}

void fingerprint_leak(Report& rep) {
  rep.config("wall_s", sample_wall());  // taint-fingerprint
}

// A raw getenv is both an env-read-discipline finding and a host source.
void env_leak(Registry& reg) {
  const char* raw = std::getenv("VMSTORM_KNOB");  // env-raw-sink-file
  reg.gauge("knob").set(raw ? 1.0 : 0.0);  // taint-env-direct
}

// env_or() is the sanctioned sanitizer: same environment, same value, so
// the derived knob cannot break same-seed reproducibility.
void env_sanitized(Registry& reg) {
  const char* v = fixture::common::env_or("VMSTORM_KNOB", "0");
  reg.gauge("knob.ok").set(v ? 1.0 : 0.0);  // ok-sanitized
}

// The escape hatch must keep working for deliberate, justified leaks.
void escaped_leak(Registry& reg) {
  // vmlint:allow(determinism-taint) fixture: deliberate, covered by test
  reg.gauge("escaped").set(sample_wall());  // ok-allow-escape
}

// blend(1) could bind to the clean int overload here or the tainted double
// overload in probe.cpp; "any" propagation must treat it as tainted.
void any_mode_leak(Registry& reg) {
  reg.gauge("blend").set(blend(1));  // taint-any-candidate
}

}  // namespace fixture::obs
