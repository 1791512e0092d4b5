// Metrics registry: counters, gauges, exponential-bucket latency
// histograms and time-weighted gauges, with cheap handle-based recording.
//
// Usage pattern (the hot-path contract):
//   * at construction time a component asks the registry for handles once
//     (Counter&/Gauge&/ExpHistogram&) — a map lookup + possible insert;
//   * on the hot path it records through the handle — an increment or a
//     bucket bump, no strings, no locks (the simulator is single-threaded);
//   * at snapshot time Registry::to_json() walks every metric in key order
//     and serializes deterministically (same seed => byte-identical JSON).
//
// Handles are stable for the registry's lifetime (metrics are stored
// behind unique_ptr and never erased).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace vmstorm::obs {

class JsonWriter;

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Exponential-bucket histogram sized for latencies in seconds. Bucket i
/// covers (bound(i-1), bound(i)] with bound(i) = kFirstBound * kGrowth^i;
/// the last bucket is the overflow (48 buckets ≈ 1.4e8 s of range). Exact
/// count/sum/min/max are kept alongside the buckets.
class ExpHistogram {
 public:
  static constexpr double kFirstBound = 1e-6;
  static constexpr double kGrowth = 2.0;
  static constexpr std::size_t kBuckets = 48;

  void record(double x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Percentile estimate (p in [0,100]): linear interpolation inside the
  /// bucket holding the rank, clamped to the observed [min, max].
  double percentile(double p) const;

  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  double bucket_bound(std::size_t i) const;  // upper bound of bucket i

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Integrates a piecewise-constant value over (simulated) time — queue
/// depths, in-flight counts. Timestamps are supplied by the caller so the
/// type stays clock-agnostic and deterministic.
class TimeWeighted {
 public:
  /// The tracked value becomes `v` at time `t` (t must not decrease).
  void set(double t, double v);
  void add(double t, double dv) { set(t, value_ + dv); }

  double value() const { return value_; }
  double max() const { return max_; }
  double last_time() const { return last_t_; }

  /// Time average over [first set, t_end] (0 before any sample).
  double average(double t_end) const;

 private:
  double integral_ = 0;
  double start_t_ = 0;
  double last_t_ = 0;
  double value_ = 0;
  double max_ = 0;
  bool started_ = false;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  ExpHistogram& histogram(std::string_view name);
  TimeWeighted& time_weighted(std::string_view name);

  /// Host-side gauge: wall-clock timings, RSS — anything that varies run to
  /// run on the same seed. Kept in a separate scope that to_json() (the
  /// seed-deterministic export) never touches, so attaching host telemetry
  /// cannot break same-seed byte-identity. Export with host_json().
  Gauge& host_gauge(std::string_view name);

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size() +
           time_weighted_.size();
  }

  /// Serializes every deterministic metric, grouped by kind, in key order:
  /// {"counters":{...},"gauges":{...},"histograms":{...},"time_weighted":{...}}
  /// Host gauges are deliberately absent — see host_gauge().
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

  /// Serializes the host-gauge scope only: {"host_gauges":{...}}.
  void write_host_json(JsonWriter& w) const;
  std::string host_json() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ExpHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<TimeWeighted>> time_weighted_;
  std::map<std::string, std::unique_ptr<Gauge>> host_gauges_;
};

}  // namespace vmstorm::obs
