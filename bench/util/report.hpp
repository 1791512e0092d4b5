// Machine-readable benchmark reports (schema "vmstorm-bench-v3").
//
// Every figure and ablation bench records each number it measures once, in
// one Report, and prints its tables from it (print()): panels hold named
// series of (x, y) points (x numeric for sweeps, categorical for
// Bonnie-style rows) plus optional digitized paper reference curves.
// write() serializes the report as deterministic JSON to
// BENCH_<name>.json in $VMSTORM_BENCH_DIR (default: the current
// directory), together with a metrics-registry snapshot captured from a
// designated run (capture_obs) and a fingerprint of the configuration, so
// artifacts from different configs never diff clean by accident.
//
// Determinism: everything flows through obs::JsonWriter (std::to_chars
// doubles, insertion-ordered objects); same build + same seed + same env
// produce byte-identical artifacts, which CI exploits by diffing two runs.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace vmstorm::cloud {
class Cloud;
struct CloudConfig;
}  // namespace vmstorm::cloud

namespace vmstorm::bench {

struct SeriesPoint {
  bool numeric_x = true;
  double x = 0;
  std::string x_label;  ///< used when !numeric_x
  double y = 0;
};

struct Series {
  std::string name;
  std::vector<SeriesPoint> points;
  /// Digitized paper curve for this series, if the figure has one.
  std::vector<std::pair<double, double>> reference;

  void add(double x, double y);
  void add(const std::string& label, double y);
};

struct Panel {
  std::string title;
  std::string x_label;
  std::string y_label;
  // deque: at() returns references that benches hold while creating more
  // series; vector reallocation would invalidate them.
  std::deque<Series> series;

  /// Finds or creates the named series.
  Series& at(const std::string& name);
};

class Report {
 public:
  /// `name` keys the artifact file (BENCH_<name>.json); `figure` and
  /// `title` describe what the source paper calls this experiment.
  Report(std::string name, std::string figure, std::string title);

  /// Finds or creates the named panel.
  Panel& panel(const std::string& title, const std::string& x_label = "",
               const std::string& y_label = "");

  /// Adds a config entry (recorded verbatim and folded into the
  /// fingerprint, in insertion order).
  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, double value);
  void config(const std::string& key, std::uint64_t value);

  /// Attaches a metrics-registry snapshot (obs::Registry::to_json()).
  void set_metrics_json(std::string json) { metrics_json_ = std::move(json); }

  /// Attaches critical-path attribution (obs::attribution_json()). Empty =
  /// "attribution": null (tracing off, or nothing to attribute).
  void set_attribution_json(std::string json) {
    attribution_json_ = std::move(json);
  }

  /// Attaches the sampled time-series section (cloud::Cloud::timeline_json).
  /// Empty = "timeline": null (sampling off).
  void set_timeline_json(std::string json) {
    timeline_json_ = std::move(json);
  }

  std::string to_json() const;

  /// The named panels as one table, under `caption`. The first column is x
  /// (headed by the first panel's x label, each x as the artifact records
  /// it), one row per x in order of first appearance. Then one column per
  /// series, in panel and series order, headed `<series>`, or
  /// `<panel>.<series>` when several panels share the table. A series with
  /// a reference curve is followed by a `paper` column: the curve at the
  /// row's x, linear between its points and flat past its ends. Every other
  /// cell is "%.2f", or empty where the series has no point at that x.
  std::string render(const std::string& caption,
                     const std::vector<std::string>& panel_titles) const;

  /// Prints render(caption, panel_titles) to stdout.
  void print(const std::string& caption,
             const std::vector<std::string>& panel_titles) const;

  /// Writes `body` and a newline to `<bench_dir()>/<file>`. A failure is
  /// reported to stderr and remembered for write().
  void write_artifact(const std::string& file, const std::string& body);

  /// Writes BENCH_<name>.json under $VMSTORM_BENCH_DIR (default "."). False
  /// if it, or any earlier write_artifact() of this report (capture_obs's
  /// TRACE files), was not written.
  bool write();

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::string figure_;
  std::string title_;
  std::vector<std::pair<std::string, std::string>> config_;
  // deque, not vector: panel() hands out long-lived references.
  std::deque<Panel> panels_;
  std::string metrics_json_;      ///< empty = "metrics": null
  std::string attribution_json_;  ///< empty = "attribution": null
  std::string timeline_json_;     ///< empty = "timeline": null
  bool write_failed_ = false;
};

/// FNV-1a 64-bit over "key=value;" in entry order, as 16 hex digits: the
/// config fingerprint of every BENCH artifact.
std::string config_fingerprint(
    const std::vector<std::pair<std::string, std::string>>& entries);

/// Captures the Cloud's metrics registry into the report (collect + JSON).
/// When tracing is enabled it additionally runs the critical-path analyzer
/// over the recorded spans (the "attribution" section of the artifact) and
/// writes the trace alongside it with write_artifact(), as
/// TRACE_<name>.json (chrome://tracing) and TRACE_<name>.jsonl (the
/// `vmstormctl critpath` input). When timeline sampling is enabled, the
/// sampled series plus their phase segmentation land in the "timeline"
/// section.
void capture_obs(Report& report, cloud::Cloud& cloud);

/// Adds the paper-style temporal panels from the cloud's sampled timeline:
/// aggregate throughput over time (MB/s) and the provider-load imbalance
/// ratio over time. No-op when sampling is disabled or empty; `prefix`
/// names the panels (e.g. "4e"/"4f").
void add_timeline_panels(Report& report, cloud::Cloud& cloud,
                         const std::string& prefix);

/// Records the standard testbed knobs (node count, image/chunk sizes,
/// replication, dedup, prefetch window, seed) into the report's config,
/// so the fingerprint pins the whole experimental setup.
void report_cloud_config(Report& report, const cloud::CloudConfig& cfg);

/// Directory bench artifacts land in ($VMSTORM_BENCH_DIR, default ".").
std::string bench_dir();

}  // namespace vmstorm::bench
