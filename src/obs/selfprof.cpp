#include "obs/selfprof.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/json.hpp"

namespace vmstorm::obs {

double SelfProfiler::wall_now() {
  // vmlint:allow(determinism) the one sanctioned wall-clock read: host-side
  // self-profiling by design; results never feed back into the simulation.
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

double SelfProfiler::dispatch_seconds() const {
  const double d = run_seconds_ - seconds_[kQueueOps] - seconds_[kAuditor] -
                   seconds_[kResume];
  return d > 0 ? d : 0;
}

double SelfProfiler::user_seconds() const {
  const double u = seconds_[kResume] - seconds_[kTracer];
  return u > 0 ? u : 0;
}

void SelfProfiler::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("queue_ops").value(seconds_[kQueueOps]);
  w.key("auditor").value(seconds_[kAuditor]);
  w.key("resume").value(seconds_[kResume]);
  w.key("tracer").value(seconds_[kTracer]);
  w.key("dispatch").value(dispatch_seconds());
  w.key("user_work").value(user_seconds());
  w.end_object();
}

namespace {

/// Reads a "Vm...: N kB" line from /proc/self/status; returns bytes.
std::uint64_t proc_status_kb(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      unsigned long long v = 0;
      if (std::sscanf(line + field_len + 1, "%llu", &v) == 1) kb = v;
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  (void)field;
  return 0;
#endif
}

}  // namespace

std::uint64_t peak_rss_bytes() { return proc_status_kb("VmHWM"); }

}  // namespace vmstorm::obs
