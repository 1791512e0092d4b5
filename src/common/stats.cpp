#include "common/stats.hpp"

#include <algorithm>
#include <numeric>

namespace vmstorm {

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double SampleSet::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleSet::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

SampleSet::Summary SampleSet::summary() const {
  Summary s;
  s.count = samples_.size();
  if (samples_.empty()) return s;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  s.mean = sum() / static_cast<double>(sorted.size());
  s.min = sorted.front();
  s.max = sorted.back();
  const auto at = [&sorted](double p) {
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  };
  s.p50 = at(50.0);
  s.p95 = at(95.0);
  s.p99 = at(99.0);
  return s;
}

}  // namespace vmstorm
