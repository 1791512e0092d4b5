#include "util/report.hpp"

#include <algorithm>
#include <cstdio>

#include "cloud/cloud.hpp"
#include "common/env.hpp"
#include "common/file_io.hpp"
#include "common/table.hpp"
#include "obs/critpath.hpp"
#include "util/bench_util.hpp"

namespace vmstorm::bench {

void Series::add(double x, double y) {
  SeriesPoint p;
  p.numeric_x = true;
  p.x = x;
  p.y = y;
  points.push_back(std::move(p));
}

void Series::add(const std::string& label, double y) {
  SeriesPoint p;
  p.numeric_x = false;
  p.x_label = label;
  p.y = y;
  points.push_back(std::move(p));
}

Series& Panel::at(const std::string& name) {
  for (Series& s : series) {
    if (s.name == name) return s;
  }
  series.push_back(Series{});
  series.back().name = name;
  return series.back();
}

Report::Report(std::string name, std::string figure, std::string title)
    : name_(std::move(name)), figure_(std::move(figure)),
      title_(std::move(title)) {}

Panel& Report::panel(const std::string& title, const std::string& x_label,
                     const std::string& y_label) {
  for (Panel& p : panels_) {
    if (p.title == title) return p;
  }
  panels_.push_back(Panel{});
  Panel& p = panels_.back();
  p.title = title;
  p.x_label = x_label;
  p.y_label = y_label;
  return p;
}

void Report::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, value);
}

void Report::config(const std::string& key, double value) {
  config_.emplace_back(key, obs::json_number(value));
}

void Report::config(const std::string& key, std::uint64_t value) {
  config_.emplace_back(key, obs::json_number(value));
}

std::string config_fingerprint(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [k, v] : entries) {
    mix(k);
    mix("=");
    mix(v);
    mix(";");
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string Report::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("vmstorm-bench-v3");
  w.key("name").value(name_);
  w.key("figure").value(figure_);
  w.key("title").value(title_);
  w.key("quick").value(quick_mode());
  w.key("config").begin_object();
  for (const auto& [k, v] : config_) {
    // Values produced by the double/uint overloads are already JSON
    // numbers; string values need quoting. Disambiguate by first char.
    w.key(k);
    const bool is_number =
        !v.empty() && (v[0] == '-' || (v[0] >= '0' && v[0] <= '9'));
    if (is_number || v == "null") {
      w.raw(v);
    } else {
      w.value(v);
    }
  }
  w.key("fingerprint").value(config_fingerprint(config_));
  w.end_object();
  w.key("panels").begin_array();
  for (const Panel& p : panels_) {
    w.begin_object();
    w.key("title").value(p.title);
    w.key("x_label").value(p.x_label);
    w.key("y_label").value(p.y_label);
    w.key("series").begin_array();
    for (const Series& s : p.series) {
      w.begin_object();
      w.key("name").value(s.name);
      w.key("points").begin_array();
      for (const SeriesPoint& pt : s.points) {
        w.begin_object();
        w.key("x");
        if (pt.numeric_x) {
          w.value(pt.x);
        } else {
          w.value(pt.x_label);
        }
        w.key("y").value(pt.y);
        w.end_object();
      }
      w.end_array();
      if (!s.reference.empty()) {
        w.key("reference").begin_array();
        for (const auto& [x, y] : s.reference) {
          w.begin_object();
          w.key("x").value(x);
          w.key("y").value(y);
          w.end_object();
        }
        w.end_array();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  if (metrics_json_.empty()) {
    w.null();
  } else {
    w.raw(metrics_json_);
  }
  w.key("attribution");
  if (attribution_json_.empty()) {
    w.null();
  } else {
    w.raw(attribution_json_);
  }
  w.key("timeline");
  if (timeline_json_.empty()) {
    w.null();
  } else {
    w.raw(timeline_json_);
  }
  w.end_object();
  return w.take();
}

std::string bench_dir() {
  const char* dir = common::env_or("VMSTORM_BENCH_DIR");
  return (dir != nullptr && dir[0] != '\0') ? dir : ".";
}

namespace {

/// A digitized paper curve at x: linear between its points, held flat past
/// its ends.
double paper_ref(const std::vector<std::pair<double, double>>& curve,
                 double x) {
  if (curve.empty()) return 0;
  if (x <= curve.front().first) return curve.front().second;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (x <= curve[i].first) {
      const auto [x0, y0] = curve[i - 1];
      const auto [x1, y1] = curve[i];
      return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
    }
  }
  return curve.back().second;
}

bool same_x(const SeriesPoint& a, const SeriesPoint& b) {
  return a.numeric_x ? b.numeric_x && a.x == b.x
                     : !b.numeric_x && a.x_label == b.x_label;
}

}  // namespace

std::string Report::render(const std::string& caption,
                           const std::vector<std::string>& panel_titles) const {
  std::vector<const Panel*> shown;
  for (const std::string& title : panel_titles) {
    for (const Panel& p : panels_) {
      if (p.title == title) shown.push_back(&p);
    }
  }
  std::vector<const SeriesPoint*> xs;
  for (const Panel* p : shown) {
    for (const Series& s : p->series) {
      for (const SeriesPoint& pt : s.points) {
        if (std::none_of(xs.begin(), xs.end(), [&](const SeriesPoint* x) {
              return same_x(*x, pt);
            })) {
          xs.push_back(&pt);
        }
      }
    }
  }

  std::vector<std::string> header{shown.empty() ? "" : shown[0]->x_label};
  std::vector<std::vector<std::string>> rows;
  for (const SeriesPoint* x : xs) {
    rows.push_back({x->numeric_x ? obs::json_number(x->x) : x->x_label});
  }
  for (const Panel* p : shown) {
    for (const Series& s : p->series) {
      header.push_back(shown.size() > 1 ? p->title + "." + s.name : s.name);
      if (!s.reference.empty()) header.push_back("paper");
      for (std::size_t r = 0; r < xs.size(); ++r) {
        const auto pt = std::find_if(
            s.points.begin(), s.points.end(),
            [&](const SeriesPoint& q) { return same_x(*xs[r], q); });
        rows[r].push_back(pt == s.points.end() ? "" : Table::num(pt->y, 2));
        if (!s.reference.empty()) {
          rows[r].push_back(Table::num(paper_ref(s.reference, xs[r]->x), 2));
        }
      }
    }
  }
  Table table(std::move(header));
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  return "\n" + caption + "\n" + table.to_string();
}

void Report::print(const std::string& caption,
                   const std::vector<std::string>& panel_titles) const {
  std::fputs(render(caption, panel_titles).c_str(), stdout);
}

void Report::write_artifact(const std::string& file, std::string body) {
  const std::string path = bench_dir() + "/" + file;
  body.push_back('\n');
  const Status st = write_file(path, body);
  if (st.is_ok()) {
    std::printf("[artifact] %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "bench: cannot write: %s\n", st.to_string().c_str());
    write_failed_ = true;
  }
}

bool Report::write() {
  write_artifact("BENCH_" + name_ + ".json", to_json());
  return !write_failed_;
}

void add_timeline_panels(Report& report, cloud::Cloud& cloud,
                         const std::string& prefix) {
  const obs::Timeline& tl = cloud.obs().timeline;
  if (!tl.enabled() || tl.samples_retained() == 0) return;
  const std::vector<double> time = tl.times();

  const auto add_curve = [&](const char* series_name, const char* panel_title,
                             const char* y_label, const char* curve,
                             double scale) {
    const obs::Timeline::SeriesId id = tl.find_series(series_name);
    if (id >= tl.series_count()) return;
    const std::vector<double> v = tl.values(id);
    Panel& p = report.panel(panel_title, "time (s)", y_label);
    Series& s = p.at(curve);
    for (std::size_t i = 0; i < time.size(); ++i) {
      s.add(time[i], v[i] * scale);
    }
  };

  // The paper's Fig. 4-style aggregate-throughput curve and the provider
  // load-skew companion (max/mean per-sample provider disk utilization).
  add_curve("net.throughput_bytes_per_sec",
            (prefix + "_throughput_timeline").c_str(),
            "aggregate throughput (MB/s)", "throughput_mbps", 1e-6);
  add_curve("provider.imbalance", (prefix + "_provider_imbalance").c_str(),
            "max/mean provider load", "imbalance_ratio", 1.0);
}

void report_cloud_config(Report& report, const cloud::CloudConfig& cfg) {
  report.config("compute_nodes", static_cast<std::uint64_t>(cfg.compute_nodes));
  report.config("image_size", static_cast<std::uint64_t>(cfg.image_size));
  report.config("chunk_size", static_cast<std::uint64_t>(cfg.chunk_size));
  report.config("qcow_cluster_size",
                static_cast<std::uint64_t>(cfg.qcow_cluster_size));
  report.config("replication", static_cast<std::uint64_t>(cfg.replication));
  report.config("dedup", cfg.dedup ? "true" : "false");
  report.config("prefetch_window",
                static_cast<std::uint64_t>(cfg.prefetch_window));
  report.config("seed", cfg.seed);
}

void capture_obs(Report& report, cloud::Cloud& cloud) {
  report.set_metrics_json(cloud.metrics_json());
  if (cloud.timeline_enabled()) {
    report.set_timeline_json(cloud.timeline_json());
  }
  if (cloud.obs().trace.enabled()) {
    const obs::CritReport crit =
        obs::analyze_critical_paths(cloud.obs().trace.events());
    report.set_attribution_json(obs::attribution_json(crit));
    report.write_artifact("TRACE_" + report.name() + ".json",
                          cloud.trace_chrome_json());
    report.write_artifact("TRACE_" + report.name() + ".jsonl",
                          cloud.obs().trace.jsonl());
  }
}

}  // namespace vmstorm::bench
