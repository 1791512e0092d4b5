// Deterministic time-series recorder.
//
// The registry (obs/metrics.hpp) answers "what were the totals at the end
// of the run"; the Timeline answers "when did the load move". A background
// sampler task (Cloud::timeline_sampler) reads component state on a fixed
// simulated-time cadence and records one value per registered series per
// sample. Because the clock is the simulated one and the sampler is an
// ordinary engine task, the recorded series are a pure function of the
// seed: same seed, byte-identical export.
//
// Storage is ring-backed and preallocated: add_series()/configure() size
// every buffer up front (setup-time allocation), and begin_sample()/
// record() are plain indexed stores — no allocation on the sampling path,
// so the hot-path budget (tools/vmlint/hotpath_budget.txt) does not grow.
// When a run outlives the ring, the oldest samples are overwritten and
// counted in dropped_samples(); the retained window always ends at the
// final sample.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vmstorm::obs {

class JsonWriter;

struct TimelineConfig {
  /// Simulated seconds between samples.
  double cadence_seconds = 0.25;
  /// Samples retained per series (ring; oldest dropped past this).
  std::size_t capacity = 4096;
};

/// Label set attached to a series (e.g. {{"provider", "3"}}). Insertion
/// order is preserved in the export.
using TimelineLabels = std::vector<std::pair<std::string, std::string>>;

class Timeline {
 public:
  using SeriesId = std::size_t;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Applies `cfg` and resizes every registered series' ring. Drops any
  /// recorded samples; call before sampling starts.
  void configure(const TimelineConfig& cfg);
  double cadence_seconds() const { return cfg_.cadence_seconds; }
  std::size_t capacity() const { return cfg_.capacity; }

  /// Registers a series and preallocates its ring. Setup-time only (the
  /// sampling path never registers). Returns the id record() takes.
  SeriesId add_series(std::string name, TimelineLabels labels = {});
  std::size_t series_count() const { return series_.size(); }
  const std::string& series_name(SeriesId id) const {
    return series_[id].name;
  }

  /// First series with `name` (any labels), or false via the out-param
  /// convention: returns series_count() when absent.
  SeriesId find_series(std::string_view name) const;

  /// Starts the sample at simulated time `t`: stamps the slot and zeroes
  /// every series' cell, so unrecorded series read 0 rather than a stale
  /// wrapped value. O(series), allocation-free.
  void begin_sample(double t);
  /// Sets series `id` in the current sample. Allocation-free.
  void record(SeriesId id, double v);

  /// Samples ever begun (monotone, includes overwritten ones).
  std::uint64_t samples_taken() const { return samples_taken_; }
  std::size_t samples_retained() const;
  std::uint64_t dropped_samples() const {
    return samples_taken_ > cfg_.capacity ? samples_taken_ - cfg_.capacity
                                          : 0;
  }

  /// Retained sample timestamps / values, oldest first (copies; export and
  /// analysis only).
  std::vector<double> times() const;
  std::vector<double> values(SeriesId id) const;

  /// The artifact `timeline` object. `phases_raw`, when non-empty, is
  /// emitted verbatim under the "phases" key (see obs/phases.hpp).
  std::string to_json(std::string_view phases_raw = {}) const;
  void write_json(JsonWriter& w, std::string_view phases_raw = {}) const;

  /// Drops recorded samples; series registrations and config survive.
  void clear();

 private:
  struct SeriesDef {
    std::string name;
    TimelineLabels labels;
    std::vector<double> ring;  // cfg_.capacity slots
  };

  // Retained window [start, start+n) in ring coordinates, oldest first.
  std::size_t ring_start() const {
    return samples_taken_ > cfg_.capacity
               ? static_cast<std::size_t>(samples_taken_ % cfg_.capacity)
               : 0;
  }

  bool enabled_ = false;
  TimelineConfig cfg_;
  std::uint64_t samples_taken_ = 0;
  std::vector<double> times_;  // cfg_.capacity slots
  std::vector<SeriesDef> series_;
};

}  // namespace vmstorm::obs
