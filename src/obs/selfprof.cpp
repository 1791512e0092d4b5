#include "obs/selfprof.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/file_io.hpp"
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

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  // The "VmHWM:  N kB" line; the file's first line is "Name:".
  constexpr std::string_view kField = "\nVmHWM:";
  auto status = read_file("/proc/self/status");
  const std::size_t at =
      status.is_ok() ? status->find(kField) : std::string::npos;
  unsigned long long kb = 0;
  if (at == std::string::npos ||
      std::sscanf(status->c_str() + at + kField.size(), "%llu", &kb) != 1) {
    return 0;
  }
  return kb * 1024;
#else
  return 0;
#endif
}

}  // namespace vmstorm::obs
