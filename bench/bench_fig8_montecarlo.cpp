// Figure 8 — the real-world application (§5.5): a Monte-Carlo π
// approximation distributed over 100 VM workers, each saving intermediate
// results (~10 MB) inside its image.
//
//   Uninterrupted:   multideploy + compute to completion
//                    (all three strategies).
//   Suspend/Resume:  multideploy + half the computation + multisnapshot +
//                    terminate + redeploy on FRESH nodes + finish
//                    (ours vs. qcow2-over-PVFS; prepropagation cannot
//                    snapshot).
#include <cstdio>

#include "apps/montecarlo.hpp"
#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {
namespace {

apps::MonteCarloParams params() {
  apps::MonteCarloParams p;
  p.workers = bench::quick_mode() ? 10 : 100;
  p.compute_seconds = 1000.0;
  p.state_bytes = 10 * 1000 * 1000;
  p.steps = 10;
  p.boot = bench::paper_boot_params();
  return p;
}

// Bar heights digitized from the published Figure 8 (seconds).
constexpr double kPaperUninterrupted[3] = {1650, 1130, 1100};  // pre, qcow, ours
constexpr double kPaperSuspendResume[2] = {1310, 1250};        // qcow, ours

}  // namespace

int run() {
  bench::print_header("Figure 8",
                      "Monte-Carlo simulation on 100 VM instances (s)");
  const auto p = params();
  const auto cfg = bench::paper_cloud_config(p.workers);

  bench::Report report("fig8_montecarlo", "Figure 8",
                       "Monte-Carlo simulation on 100 VM instances");
  bench::report_cloud_config(report, cfg);
  report.config("workers", static_cast<std::uint64_t>(p.workers));
  report.config("compute_seconds", p.compute_seconds);
  report.config("state_bytes", static_cast<std::uint64_t>(p.state_bytes));
  auto& up = report.panel("uninterrupted", "strategy", "seconds");
  auto& rp = report.panel("suspend_resume", "strategy", "seconds");

  int i = 0;
  for (auto s : {cloud::Strategy::kPrepropagation,
                 cloud::Strategy::kQcowOverPvfs, cloud::Strategy::kOurs}) {
    auto out = apps::run_montecarlo_uninterrupted(s, cfg, p);
    up.at("completion").add(cloud::strategy_name(s), out.completion_seconds);
    up.at("paper").add(cloud::strategy_name(s), kPaperUninterrupted[i]);
    up.at("deploy").add(cloud::strategy_name(s), out.deploy_seconds);
    ++i;
    std::fprintf(stderr, "  [fig8] uninterrupted %-22s done\n",
                 cloud::strategy_name(s));
  }

  i = 0;
  double completions[2] = {0, 0};
  for (auto s : {cloud::Strategy::kQcowOverPvfs, cloud::Strategy::kOurs}) {
    auto out = apps::run_montecarlo_suspend_resume(s, cfg, p);
    if (!out.is_ok()) {
      std::fprintf(stderr, "suspend/resume failed: %s\n",
                   out.status().to_string().c_str());
      return 1;
    }
    completions[i] = out->completion_seconds;
    rp.at("completion").add(cloud::strategy_name(s), out->completion_seconds);
    rp.at("paper").add(cloud::strategy_name(s), kPaperSuspendResume[i]);
    rp.at("snapshot").add(cloud::strategy_name(s), out->snapshot_seconds);
    rp.at("resume").add(cloud::strategy_name(s), out->resume_seconds);
    ++i;
    std::fprintf(stderr, "  [fig8] suspend/resume %-22s done\n",
                 cloud::strategy_name(s));
  }
  report.print("Setting: Uninterrupted", {"uninterrupted"});
  report.print("Setting: Suspend/Resume (snapshot, terminate, resume on "
               "fresh nodes)",
               {"suspend_resume"});
  std::printf("\nOurs resumes faster than qcow2/PVFS by %.1f%% "
              "(paper: \"by almost 5%%\").\n",
              100.0 * (completions[0] - completions[1]) / completions[0]);
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
