// Figure 4 — multideployment: concurrently instantiate N VMs from one 2 GiB
// image, for the three strategies of §5.2. Prints the four panels:
//   (a) average boot time per instance
//   (b) completion time to boot all instances (incl. initialization)
//   (c) speedup of our approach's completion time vs. both baselines
//   (d) total generated network traffic
#include <cstdio>
#include <map>

#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {
namespace {

using cloud::Strategy;

struct Row {
  double avg_boot = 0;
  double completion = 0;
  double traffic_gb = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

// Reference points digitized from the published Figure 4.
const std::vector<std::pair<double, double>> kPaper4aTaktuk = {{1, 10}, {110, 12}};
const std::vector<std::pair<double, double>> kPaper4aQcow = {
    {1, 18}, {20, 25}, {60, 45}, {110, 70}};
const std::vector<std::pair<double, double>> kPaper4aOurs = {
    {1, 15}, {20, 18}, {60, 22}, {110, 25}};
const std::vector<std::pair<double, double>> kPaper4bTaktuk = {
    {1, 120}, {3, 220}, {7, 320}, {15, 420}, {31, 520}, {63, 620}, {110, 780}};
// Calibrated to the text: "the speedup vs. qcow2 over PVFS ... reaching a
// little over 2 at 110 instances".
const std::vector<std::pair<double, double>> kPaper4bQcow = {{1, 35}, {110, 85}};
const std::vector<std::pair<double, double>> kPaper4bOurs = {{1, 30}, {110, 40}};
const std::vector<std::pair<double, double>> kPaper4dTaktuk = {{1, 2}, {110, 220}};
const std::vector<std::pair<double, double>> kPaper4dQcow = {{1, 0.11}, {110, 12}};
const std::vector<std::pair<double, double>> kPaper4dOurs = {{1, 0.12}, {110, 13}};

}  // namespace

int run() {
  bench::print_header("Figure 4", "multideployment performance");
  const auto sweep = bench::instance_sweep();
  const auto tp = bench::paper_boot_params();

  bench::Report report("fig4_multideployment", "Figure 4",
                       "multideployment performance");
  bench::report_cloud_config(report, bench::paper_cloud_config(sweep.back()));

  std::map<Strategy, std::map<std::size_t, Row>> rows;
  for (Strategy s :
       {Strategy::kPrepropagation, Strategy::kQcowOverPvfs, Strategy::kOurs}) {
    for (std::size_t n : sweep) {
      cloud::Cloud c(bench::paper_cloud_config(n), s);
      // The capture run always traces and samples a timeline: its artifact
      // must carry attribution and the throughput-over-time curves even
      // when the environment didn't set VMSTORM_TRACE / VMSTORM_TIMELINE.
      if (s == Strategy::kOurs && n == sweep.back()) {
        c.obs().trace.set_enabled(true);
        if (!c.timeline_enabled()) c.enable_timeline();
      }
      auto m = c.multideploy(n, tp);
      Row r;
      r.avg_boot = m.boot_seconds.mean();
      r.completion = m.completion_seconds;
      r.traffic_gb = static_cast<double>(m.network_traffic) / 1e9;
      const auto sum = m.boot_seconds.summary();
      r.p50 = sum.p50;
      r.p95 = sum.p95;
      r.p99 = sum.p99;
      rows[s][n] = r;
      // Metrics snapshot from the biggest "ours" deployment — the run the
      // paper's analysis focuses on.
      if (s == Strategy::kOurs && n == sweep.back()) {
        bench::capture_obs(report, c);
        bench::add_timeline_panels(report, c, "4e");
      }
      std::fprintf(stderr, "  [fig4] %-22s n=%-3zu boot=%.1fs total=%.1fs traffic=%.1fGB\n",
                   cloud::strategy_name(s), n, r.avg_boot, r.completion,
                   r.traffic_gb);
    }
  }

  {
    auto& a = report.panel("4a_avg_boot", "instances", "seconds");
    a.at("taktuk").reference = kPaper4aTaktuk;
    a.at("qcow2_pvfs").reference = kPaper4aQcow;
    a.at("ours").reference = kPaper4aOurs;
    auto& b = report.panel("4b_completion", "instances", "seconds");
    b.at("taktuk").reference = kPaper4bTaktuk;
    b.at("qcow2_pvfs").reference = kPaper4bQcow;
    b.at("ours").reference = kPaper4bOurs;
    auto& c = report.panel("4c_speedup", "instances", "ratio");
    auto& d = report.panel("4d_traffic", "instances", "GB");
    auto& t = report.panel("4a_boot_tails", "instances", "seconds");
    const std::pair<Strategy, const char*> tail_series[] = {
        {Strategy::kPrepropagation, "taktuk"},
        {Strategy::kQcowOverPvfs, "qcow2_pvfs"},
        {Strategy::kOurs, "ours"}};
    d.at("taktuk").reference = kPaper4dTaktuk;
    d.at("qcow2_pvfs").reference = kPaper4dQcow;
    d.at("ours").reference = kPaper4dOurs;
    for (std::size_t n : sweep) {
      const double x = static_cast<double>(n);
      a.at("taktuk").add(x, rows[Strategy::kPrepropagation][n].avg_boot);
      a.at("qcow2_pvfs").add(x, rows[Strategy::kQcowOverPvfs][n].avg_boot);
      a.at("ours").add(x, rows[Strategy::kOurs][n].avg_boot);
      b.at("taktuk").add(x, rows[Strategy::kPrepropagation][n].completion);
      b.at("qcow2_pvfs").add(x, rows[Strategy::kQcowOverPvfs][n].completion);
      b.at("ours").add(x, rows[Strategy::kOurs][n].completion);
      const double ours = rows[Strategy::kOurs][n].completion;
      c.at("vs_taktuk").add(x, rows[Strategy::kPrepropagation][n].completion / ours);
      c.at("vs_qcow2_pvfs").add(x, rows[Strategy::kQcowOverPvfs][n].completion / ours);
      d.at("taktuk").add(x, rows[Strategy::kPrepropagation][n].traffic_gb);
      d.at("qcow2_pvfs").add(x, rows[Strategy::kQcowOverPvfs][n].traffic_gb);
      d.at("ours").add(x, rows[Strategy::kOurs][n].traffic_gb);
      for (const auto& [strat, label] : tail_series) {
        const Row& r = rows[strat][n];
        t.at(std::string(label) + "_p50").add(x, r.p50);
        t.at(std::string(label) + "_p95").add(x, r.p95);
        t.at(std::string(label) + "_p99").add(x, r.p99);
      }
    }
  }
  report.print("Fig 4(a): average time to boot one instance (s)",
               {"4a_avg_boot"});
  report.print("Fig 4(a'): boot-time tails (s)", {"4a_boot_tails"});
  report.print("Fig 4(b): completion time to boot all instances (s)",
               {"4b_completion"});
  report.print("Fig 4(c): speedup of our completion time", {"4c_speedup"});
  report.print("Fig 4(d): total network traffic (GB)", {"4d_traffic"});
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
