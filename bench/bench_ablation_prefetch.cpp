// Extension — profile-guided prefetch (paper §7 future work: "build a
// prefetching scheme based on previous experience with the access
// pattern"). Boot the deployment once to record each chunk's first-access
// order, then redeploy with a background prefetcher walking that profile
// ahead of demand.
#include <cstdio>

#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {

int run() {
  bench::print_header("Extension", "profile-guided prefetch (§7 future work)");
  const std::size_t n = bench::quick_mode() ? 8 : 32;
  const auto tp = bench::paper_boot_params();

  bench::Report report("ablation_prefetch", "Extension",
                       "profile-guided prefetch (§7 future work)");
  bench::report_cloud_config(report, bench::paper_cloud_config(n));
  auto& boot = report.panel("avg_boot", "prefetch_window", "seconds");
  auto& comp = report.panel("completion", "prefetch_window", "seconds");
  auto& traf = report.panel("traffic_per_instance", "prefetch_window", "MB");

  // Profiling run: plain lazy deployment; record instance 0's access order.
  mirror::AccessProfile profile;
  {
    cloud::Cloud c(bench::paper_cloud_config(n), cloud::Strategy::kOurs);
    c.multideploy(n, tp);
    profile = c.access_profile_of(0).value();
    std::fprintf(stderr, "  [prefetch] profile recorded: %zu chunks\n",
                 profile.size());
  }

  for (std::size_t window : {0u, 4u, 16u, 64u}) {
    auto cfg = bench::paper_cloud_config(n);
    cfg.prefetch_window = window;
    cloud::Cloud c(cfg, cloud::Strategy::kOurs);
    if (window == 64u) c.obs().trace.set_enabled(true);
    if (window > 0) c.set_prefetch_profile(profile);
    auto m = c.multideploy(n, tp);
    const double x = static_cast<double>(window);
    boot.at("ours").add(x, m.boot_seconds.mean());
    comp.at("ours").add(x, m.completion_seconds);
    traf.at("ours").add(x, static_cast<double>(m.network_traffic) / 1e6 /
                               static_cast<double>(n));
    // Snapshot the widest window — the run where the prefetcher matters.
    if (window == 64u) bench::capture_obs(report, c);
    std::fprintf(stderr, "  [prefetch] window=%zu done\n", window);
  }
  report.print("Ours at N = " + std::to_string(n) +
                   ", per prefetch window (0 = off)",
               {"avg_boot", "completion", "traffic_per_instance"});
  std::printf("\nWith the profile in hand, chunk transfers overlap the boot's\n"
              "CPU bursts instead of stalling it: boot time approaches the\n"
              "pre-propagation floor at (almost) lazy-transfer traffic.\n");
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
