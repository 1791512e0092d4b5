#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>

#include "obs/json.hpp"

namespace vmstorm::obs {

double ExpHistogram::bucket_bound(std::size_t i) const {
  double b = kFirstBound;
  for (std::size_t k = 0; k < i; ++k) b *= kGrowth;
  return b;
}

void ExpHistogram::record(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  std::size_t i = 0;
  double bound = kFirstBound;
  while (x > bound && i + 1 < counts_.size()) {
    bound *= kGrowth;
    ++i;
  }
  ++counts_[i];
}

double ExpHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      const double lo = i == 0 ? 0.0 : bucket_bound(i - 1);
      const double hi =
          i + 1 == counts_.size() ? max_ : bucket_bound(i);
      const double frac =
          (target - before) / static_cast<double>(counts_[i]);
      const double est = lo + frac * (hi - lo);
      return std::clamp(est, min_, max_);
    }
  }
  return max_;
}

void TimeWeighted::set(double t, double v) {
  if (!started_) {
    started_ = true;
    start_t_ = last_t_ = t;
    value_ = max_ = v;
    return;
  }
  assert(t >= last_t_ && "time-weighted samples must not go backwards");
  integral_ += value_ * (t - last_t_);
  last_t_ = t;
  value_ = v;
  max_ = std::max(max_, v);
}

double TimeWeighted::average(double t_end) const {
  if (!started_ || t_end <= start_t_) return started_ ? value_ : 0.0;
  const double span = t_end - start_t_;
  const double tail = value_ * (t_end - last_t_);
  return (integral_ + tail) / span;
}

Counter& Registry::counter(std::string_view name) {
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(std::string_view name) {
  auto& slot = gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

ExpHistogram& Registry::histogram(std::string_view name) {
  auto& slot = histograms_[std::string(name)];
  if (!slot) slot = std::make_unique<ExpHistogram>();
  return *slot;
}

TimeWeighted& Registry::time_weighted(std::string_view name) {
  auto& slot = time_weighted_[std::string(name)];
  if (!slot) slot = std::make_unique<TimeWeighted>();
  return *slot;
}

Gauge& Registry::host_gauge(std::string_view name) {
  auto& slot = host_gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

void Registry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [key, c] : counters_) w.key(key).value(c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [key, g] : gauges_) w.key(key).value(g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [key, h] : histograms_) {
    w.key(key).begin_object();
    w.key("count").value(h->count());
    w.key("sum").value(h->sum());
    w.key("min").value(h->min());
    w.key("max").value(h->max());
    w.key("p50").value(h->percentile(50));
    w.key("p95").value(h->percentile(95));
    w.key("p99").value(h->percentile(99));
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < h->bucket_count(); ++i) {
      if (h->bucket(i) == 0) continue;  // sparse: most buckets are empty
      w.begin_array().value(h->bucket_bound(i)).value(h->bucket(i)).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("time_weighted").begin_object();
  for (const auto& [key, t] : time_weighted_) {
    w.key(key).begin_object();
    w.key("last").value(t->value());
    w.key("max").value(t->max());
    w.key("avg").value(t->average(t->last_time()));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string Registry::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void Registry::write_host_json(JsonWriter& w) const {
  w.begin_object();
  w.key("host_gauges").begin_object();
  for (const auto& [key, g] : host_gauges_) w.key(key).value(g->value());
  w.end_object();
  w.end_object();
}

std::string Registry::host_json() const {
  JsonWriter w;
  write_host_json(w);
  return w.take();
}

}  // namespace vmstorm::obs
