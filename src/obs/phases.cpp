#include "obs/phases.hpp"

#include <algorithm>
#include <cmath>

#include "obs/critpath.hpp"
#include "obs/json.hpp"

namespace vmstorm::obs {

const char* regime_name(Regime r) {
  switch (r) {
    case Regime::kIdle: return "idle";
    case Regime::kRepoBound: return "repo_bound";
    case Regime::kNetworkBound: return "network_bound";
    case Regime::kLocalDiskBound: return "local_disk_bound";
  }
  return "?";
}

namespace {

Regime classify(double repo, double net, double local, double idle_threshold) {
  if (repo < idle_threshold && net < idle_threshold && local < idle_threshold) {
    return Regime::kIdle;
  }
  // Argmax with enum-order tie-break: strictly-greater comparisons keep the
  // earlier regime on exact ties, so the decision is deterministic.
  Regime best = Regime::kRepoBound;
  double v = repo;
  if (net > v) {
    best = Regime::kNetworkBound;
    v = net;
  }
  if (local > v) best = Regime::kLocalDiskBound;
  return best;
}

}  // namespace

PhaseReport analyze_phases(const std::vector<double>& time,
                           const std::vector<double>& util_repo,
                           const std::vector<double>& util_net,
                           const std::vector<double>& util_local,
                           const PhaseOptions& opts) {
  PhaseReport r;
  const std::size_t n =
      std::min(std::min(time.size(), util_repo.size()),
               std::min(util_net.size(), util_local.size()));
  r.samples = n;
  if (n == 0) return r;
  const double cadence = opts.cadence_seconds > 0 ? opts.cadence_seconds : 0.25;
  r.start = time[0] - cadence;
  for (std::size_t i = 0; i < n; ++i) {
    const double dt = i == 0 ? cadence : time[i] - time[i - 1];
    if (dt <= 0) continue;  // duplicate timestamp: zero-length interval
    const Regime reg =
        classify(util_repo[i], util_net[i], util_local[i], opts.idle_threshold);
    r.totals[static_cast<std::size_t>(reg)] += dt;
    r.duration += dt;
    if (!r.segments.empty() && r.segments.back().regime == reg) {
      r.segments.back().seconds += dt;
    } else {
      PhaseSegment seg;
      seg.regime = reg;
      seg.start = time[i] - dt;
      seg.seconds = dt;
      r.segments.push_back(seg);
    }
  }
  return r;
}

std::string phases_json(const PhaseReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("regimes").begin_array();
  for (std::size_t i = 0; i < kRegimeCount; ++i) {
    w.value(regime_name(static_cast<Regime>(i)));
  }
  w.end_array();
  w.key("segments").begin_array();
  for (const PhaseSegment& s : report.segments) {
    w.begin_object();
    w.key("regime").value(regime_name(s.regime));
    w.key("start").value(s.start);
    w.key("seconds").value(s.seconds);
    w.end_object();
  }
  w.end_array();
  w.key("totals").begin_object();
  for (std::size_t i = 0; i < kRegimeCount; ++i) {
    w.key(regime_name(static_cast<Regime>(i))).value(report.totals[i]);
  }
  w.end_object();
  w.key("start").value(report.start);
  w.key("duration_seconds").value(report.duration);
  w.key("samples").value(static_cast<std::uint64_t>(report.samples));
  w.end_object();
  return w.take();
}

Status check_phase_report(const PhaseReport& report, double tolerance) {
  double total = 0;
  for (double t : report.totals) total += t;
  if (std::abs(total - report.duration) > tolerance) {
    return internal_error("phase totals do not sum to the analyzed duration");
  }
  double seg_sum = 0;
  double cursor = report.start;
  for (const PhaseSegment& s : report.segments) {
    if (std::abs(s.start - cursor) > tolerance) {
      return internal_error("phase segments are not contiguous");
    }
    cursor = s.start + s.seconds;
    seg_sum += s.seconds;
  }
  if (std::abs(seg_sum - report.duration) > tolerance) {
    return internal_error("phase segments do not cover the duration");
  }
  return Status::ok();
}

Status cross_check_attribution(const PhaseReport& report,
                               const CritReport& crit, double tolerance) {
  if (Status st = check_phase_report(report, tolerance); !st.is_ok()) {
    return st;
  }
  for (const CritRow& row : crit.rows) {
    double bucket_sum = 0;
    for (double b : row.buckets) bucket_sum += b;
    if (std::abs(bucket_sum - row.seconds) > tolerance) {
      return internal_error("attribution row buckets do not sum to its span");
    }
  }
  if (report.samples == 0 || crit.rows.empty()) return Status::ok();
  // The sampler covers the whole workload (its final sample lands on the
  // grid point after the last event), so every attributed root span must
  // fit the timeline window. Slack of one mean sample interval absorbs the
  // grid alignment at both edges.
  const double slack =
      2.0 * report.duration / static_cast<double>(report.samples);
  const double lo = report.start - slack;
  const double hi = report.start + report.duration + slack;
  for (const CritRow& row : crit.rows) {
    if (row.start < lo - tolerance ||
        row.start + row.seconds > hi + tolerance) {
      return internal_error(
          "attribution root span lies outside the timeline window");
    }
  }
  return Status::ok();
}

}  // namespace vmstorm::obs
