#include "util/report.hpp"

#include <gtest/gtest.h>

#include <string>

namespace vmstorm::bench {
namespace {

TEST(ReportTable, NumericPanelWithAPaperColumnAfterTheReferencedSeries) {
  Report report("t", "Figure T", "test");
  Panel& p = report.panel("boot", "instances", "seconds");
  Series& ours = p.at("ours");
  ours.reference = {{1, 10}, {3, 30}};
  ours.add(1, 10.5);
  ours.add(2, 19.25);
  ours.add(5, 31);  // past the curve's last point: paper holds its last y
  Series& qcow = p.at("qcow2");
  qcow.add(1, 7);
  qcow.add(2, 8.5);
  qcow.add(5, 9.999);
  EXPECT_EQ(report.render("Boot time (s)", {"boot"}),
            "\nBoot time (s)\n"
            "instances  ours   paper  qcow2\n"
            "------------------------------\n"
            "1          10.50  10.00  7.00 \n"
            "2          19.25  20.00  8.50 \n"
            "5          31.00  30.00  10.00\n");
}

TEST(ReportTable, CategoricalPanelRowsFollowTheLabels) {
  Report report("t", "Figure T", "test");
  Panel& p = report.panel("throughput", "pattern", "KB_per_s");
  p.at("local").add("BlockW", 100);
  p.at("local").add("BlockR", 2000.004);
  p.at("ours").add("BlockW", 190.5);
  p.at("ours").add("BlockR", 1999.996);
  EXPECT_EQ(report.render("Throughput", {"throughput"}),
            "\nThroughput\n"
            "pattern  local    ours   \n"
            "-------------------------\n"
            "BlockW   100.00   190.50 \n"
            "BlockR   2000.00  2000.00\n");
}

TEST(ReportTable, SeveralPanelsShareOneTableInTheOrderAsked) {
  Report report("t", "Figure T", "test");
  Panel& boot = report.panel("avg_boot", "replicas", "seconds");
  boot.at("ours").add(1, 18.5);
  boot.at("ours").add(2, 19);
  Panel& traffic = report.panel("traffic", "replicas", "GB");
  traffic.at("ours").add(1, 1.25);
  traffic.at("ours").add(2, 2.5);
  report.panel("unused", "replicas", "count").at("ours").add(1, 99);
  EXPECT_EQ(report.render("Per replica count", {"traffic", "avg_boot"}),
            "\nPer replica count\n"
            "replicas  traffic.ours  avg_boot.ours\n"
            "-------------------------------------\n"
            "1         1.25          18.50        \n"
            "2         2.50          19.00        \n");
}

TEST(ReportTable, MissingPointLeavesTheCellEmpty) {
  Report report("t", "Figure T", "test");
  Panel& p = report.panel("snap", "instances", "seconds");
  p.at("qcow2").add(1, 1.5);
  p.at("qcow2").add(10, 2.5);
  p.at("ours").add(10, 0.75);
  p.at("ours").add(30, 1);
  EXPECT_EQ(report.render("Snapshot (s)", {"snap"}),
            "\nSnapshot (s)\n"
            "instances  qcow2  ours\n"
            "----------------------\n"
            "1          1.50       \n"
            "10         2.50   0.75\n"
            "30                1.00\n");
}

}  // namespace
}  // namespace vmstorm::bench
