// Ablation — chunk replication (§3.1.3): "a high degree of replication
// raises availability and provides better fault tolerance; however, it
// comes at the expense of higher storage space requirements."
// Repository footprint, deployment and snapshotting cost for r in {1,2,3}.
#include <cstdio>

#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {

int run() {
  bench::print_header("Ablation", "replication degree (§3.1.3), ours");
  const std::size_t n = bench::quick_mode() ? 8 : 32;
  const auto tp = bench::paper_boot_params();

  bench::Report report("ablation_replication", "Ablation",
                       "replication degree (§3.1.3), ours");
  bench::report_cloud_config(report, bench::paper_cloud_config(n));
  auto& repo = report.panel("repo_image", "replicas", "GB");
  auto& boot = report.panel("avg_boot", "replicas", "seconds");
  auto& dtraf = report.panel("deploy_traffic", "replicas", "GB");
  auto& snapt = report.panel("avg_snapshot", "replicas", "seconds");
  auto& straf = report.panel("snapshot_traffic", "replicas", "GB");

  for (std::size_t r : {1u, 2u, 3u}) {
    auto cfg = bench::paper_cloud_config(n);
    cfg.replication = r;
    cloud::Cloud c(cfg, cloud::Strategy::kOurs);
    if (r == 3u) c.obs().trace.set_enabled(true);
    const double repo_gb = static_cast<double>(c.repository_bytes()) / 1e9;
    auto dep = c.multideploy(n, tp);
    auto snap = c.multisnapshot();
    if (!snap.is_ok()) {
      std::fprintf(stderr, "snapshot failed\n");
      return 1;
    }
    const double x = static_cast<double>(r);
    repo.at("ours").add(x, repo_gb);
    boot.at("ours").add(x, dep.boot_seconds.mean());
    dtraf.at("ours").add(x, static_cast<double>(dep.network_traffic) / 1e9);
    snapt.at("ours").add(x, snap->snapshot_seconds.mean());
    straf.at("ours").add(x, static_cast<double>(snap->network_traffic) / 1e9);
    if (r == 3u) bench::capture_obs(report, c);
    std::fprintf(stderr, "  [replication] r=%zu done\n", r);
  }
  report.print("Ours at N = " + std::to_string(n) +
                   ", per replication degree",
               {"repo_image", "avg_boot", "deploy_traffic", "avg_snapshot",
                "snapshot_traffic"});
  std::printf("\nReplication multiplies storage and snapshot push traffic,\n"
              "while deployment reads can pick any replica.\n");
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
