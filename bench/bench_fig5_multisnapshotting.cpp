// Figure 5 — multisnapshotting: N concurrently-running VMs (each with
// ~15 MB of local modifications from boot/contextualization) snapshot at
// the same time. Ours: CLONE broadcast + COMMIT; baseline: parallel copy
// of each local qcow2 file back to PVFS. Prepropagation is omitted, as in
// the paper (§5.3: copying full images back to NFS is infeasible).
#include <cstdio>
#include <map>

#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {
namespace {

using cloud::Strategy;

struct Row {
  double avg_snap = 0;
  double completion = 0;
  double diff_mb = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

// Digitized from the published Figure 5.
const std::vector<std::pair<double, double>> kPaper5aQcow = {{1, 1.3}, {110, 1.5}};
const std::vector<std::pair<double, double>> kPaper5aOurs = {
    {1, 0.2}, {40, 0.6}, {110, 1.2}};
const std::vector<std::pair<double, double>> kPaper5bQcow = {{1, 1.5}, {110, 2.6}};
const std::vector<std::pair<double, double>> kPaper5bOurs = {
    {1, 0.3}, {40, 1.2}, {110, 2.5}};

}  // namespace

int run() {
  bench::print_header("Figure 5",
                      "multisnapshotting performance (15 MB diff/instance)");
  const auto sweep = bench::instance_sweep();
  const auto tp = bench::paper_boot_params();

  bench::Report report("fig5_multisnapshotting", "Figure 5",
                       "multisnapshotting performance (15 MB diff/instance)");
  bench::report_cloud_config(report, bench::paper_cloud_config(sweep.back()));

  std::map<Strategy, std::map<std::size_t, Row>> rows;
  for (Strategy s : {Strategy::kQcowOverPvfs, Strategy::kOurs}) {
    for (std::size_t n : sweep) {
      cloud::Cloud c(bench::paper_cloud_config(n), s);
      // Capture run always traces so the artifact carries attribution, and
      // samples a timeline for the throughput/imbalance-over-time curves.
      if (s == Strategy::kOurs && n == sweep.back()) {
        c.obs().trace.set_enabled(true);
        if (!c.timeline_enabled()) c.enable_timeline();
      }
      c.multideploy(n, tp);  // setup: creates the local modifications
      auto m = c.multisnapshot();
      if (!m.is_ok()) {
        std::fprintf(stderr, "snapshot failed: %s\n", m.status().to_string().c_str());
        return 1;
      }
      Row r;
      r.avg_snap = m->snapshot_seconds.mean();
      r.completion = m->completion_seconds;
      r.diff_mb = static_cast<double>(m->repository_growth) / 1e6 /
                  static_cast<double>(n);
      const auto sum = m->snapshot_seconds.summary();
      r.p50 = sum.p50;
      r.p95 = sum.p95;
      r.p99 = sum.p99;
      rows[s][n] = r;
      if (s == Strategy::kOurs && n == sweep.back()) {
        bench::capture_obs(report, c);
        bench::add_timeline_panels(report, c, "5e");
      }
      std::fprintf(stderr,
                   "  [fig5] %-16s n=%-3zu avg=%.2fs completion=%.2fs diff=%.1fMB\n",
                   cloud::strategy_name(s), n, r.avg_snap, r.completion, r.diff_mb);
    }
  }

  {
    auto& a = report.panel("5a_avg_snapshot", "instances", "seconds");
    a.at("qcow2_pvfs").reference = kPaper5aQcow;
    a.at("ours").reference = kPaper5aOurs;
    auto& b = report.panel("5b_completion", "instances", "seconds");
    b.at("qcow2_pvfs").reference = kPaper5bQcow;
    b.at("ours").reference = kPaper5bOurs;
    auto& g = report.panel("repo_growth", "instances", "MB_per_instance");
    auto& t = report.panel("5a_snapshot_tails", "instances", "seconds");
    const std::pair<Strategy, const char*> tail_series[] = {
        {Strategy::kQcowOverPvfs, "qcow2_pvfs"}, {Strategy::kOurs, "ours"}};
    for (std::size_t n : sweep) {
      const double x = static_cast<double>(n);
      a.at("qcow2_pvfs").add(x, rows[Strategy::kQcowOverPvfs][n].avg_snap);
      a.at("ours").add(x, rows[Strategy::kOurs][n].avg_snap);
      b.at("qcow2_pvfs").add(x, rows[Strategy::kQcowOverPvfs][n].completion);
      b.at("ours").add(x, rows[Strategy::kOurs][n].completion);
      g.at("qcow2_pvfs").add(x, rows[Strategy::kQcowOverPvfs][n].diff_mb);
      g.at("ours").add(x, rows[Strategy::kOurs][n].diff_mb);
      for (const auto& [strat, label] : tail_series) {
        const Row& r = rows[strat][n];
        t.at(std::string(label) + "_p50").add(x, r.p50);
        t.at(std::string(label) + "_p95").add(x, r.p95);
        t.at(std::string(label) + "_p99").add(x, r.p99);
      }
    }
  }
  report.print("Fig 5(a): average time to snapshot one instance (s)",
               {"5a_avg_snapshot"});
  report.print("Fig 5(a'): snapshot-time tails (s)", {"5a_snapshot_tails"});
  report.print("Fig 5(b): completion time to snapshot all instances (s)",
               {"5b_completion"});
  report.print("Repository growth per snapshot (MB/instance; shadowing "
               "stores diffs only)",
               {"repo_growth"});
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
