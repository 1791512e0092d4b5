#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace vmstorm {
namespace {

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
}

TEST(SampleSet, EmptyReturnsZero) {
  SampleSet s;
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleSet, SummaryMatchesPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  const SampleSet::Summary sum = s.summary();
  EXPECT_EQ(sum.count, 100u);
  EXPECT_DOUBLE_EQ(sum.mean, 50.5);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 100.0);
  EXPECT_DOUBLE_EQ(sum.p50, s.percentile(50));
  EXPECT_DOUBLE_EQ(sum.p95, s.percentile(95));
  EXPECT_DOUBLE_EQ(sum.p99, s.percentile(99));
}

TEST(SampleSet, SummaryEmpty) {
  SampleSet s;
  const SampleSet::Summary sum = s.summary();
  EXPECT_EQ(sum.count, 0u);
  EXPECT_EQ(sum.mean, 0.0);
  EXPECT_EQ(sum.p99, 0.0);
}

}  // namespace
}  // namespace vmstorm
