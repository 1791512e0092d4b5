#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace vmstorm::obs {
namespace {

TEST(Counter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(ExpHistogram, CountSumMinMax) {
  ExpHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  for (double x : {1e-5, 1e-3, 0.1, 0.1, 2.0}) h.record(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 2.20101, 1e-5);
  EXPECT_DOUBLE_EQ(h.min(), 1e-5);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  // Percentiles stay within the observed range.
  EXPECT_GE(h.percentile(50), h.min());
  EXPECT_LE(h.percentile(99), h.max());
}

TEST(TimeWeighted, AveragesOverTime) {
  TimeWeighted tw;
  tw.set(0.0, 2.0);   // 2 for [0, 10)
  tw.set(10.0, 4.0);  // 4 for [10, 20)
  EXPECT_DOUBLE_EQ(tw.average(20.0), 3.0);
  EXPECT_DOUBLE_EQ(tw.max(), 4.0);
  EXPECT_DOUBLE_EQ(tw.value(), 4.0);
}

TEST(Registry, HandlesAreStableAndShared) {
  Registry r;
  Counter& a = r.counter("net.transfers");
  Counter& b = r.counter("net.transfers");
  EXPECT_EQ(&a, &b);  // same key -> same metric
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, ToJsonIsDeterministicAndOrdered) {
  const auto build = [] {
    Registry r;
    r.counter("z.last").add(1);
    r.counter("a.first").add(2);
    r.gauge("g").set(0.5);
    r.histogram("h").record(1e-3);
    r.time_weighted("tw").set(1.0, 2.0);
    return r.to_json();
  };
  const std::string j1 = build();
  const std::string j2 = build();
  EXPECT_EQ(j1, j2);
  // Keys come out in lexicographic order regardless of insertion order.
  EXPECT_LT(j1.find("a.first"), j1.find("z.last"));
  EXPECT_NE(j1.find("\"counters\""), std::string::npos);
  EXPECT_NE(j1.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j1.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j1.find("\"time_weighted\""), std::string::npos);
}

}  // namespace
}  // namespace vmstorm::obs
