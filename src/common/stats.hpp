// Descriptive statistics used by the benchmark harness and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace vmstorm {

/// Retains all samples; supports exact percentiles.
class SampleSet {
 public:
  /// Fixed five-number-style digest of a sample set.
  struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  void add(double x) { samples_.push_back(x); }
  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  double sum() const;
  /// p in [0,100]; linear interpolation between order statistics.
  double percentile(double p) const;
  /// Digest computed with a single sort (cheaper than repeated percentile()).
  Summary summary() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace vmstorm
