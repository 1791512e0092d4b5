// Extension — deduplication (paper §7 future work: "interesting reductions
// in time and storage space can be obtained by introducing deduplication
// schemes"). Multisnapshotting with/without content-hash dedup.
//
// Content model: 60 % of each instance's dirty chunks carry content that
// is identical across instances (contextualization writes the same
// packages/config templates everywhere), the rest is instance-unique
// (logs, keys). With dedup on, a common chunk is stored and pushed once
// cluster-wide; without it, every instance stores its own copy.
#include <cstdio>

#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {

int run() {
  bench::print_header("Extension", "snapshot deduplication (§7 future work)");
  const std::size_t n = bench::quick_mode() ? 8 : 32;
  const auto tp = bench::paper_boot_params();

  bench::Report report("ablation_dedup", "Extension",
                       "snapshot deduplication (§7 future work)");
  bench::report_cloud_config(report, bench::paper_cloud_config(n));
  report.config("snapshot_shared_fraction", 0.6);
  auto& grow = report.panel("repo_growth_per_instance", "dedup", "MB");
  auto& traf = report.panel("snapshot_traffic", "dedup", "GB");
  auto& comp = report.panel("completion", "dedup", "seconds");
  auto& hits = report.panel("dedup_hits", "dedup", "count");
  auto& save = report.panel("saved", "dedup", "GB");

  for (bool dedup : {false, true}) {
    auto cfg = bench::paper_cloud_config(n);
    cfg.dedup = dedup;
    cfg.snapshot_shared_fraction = 0.6;
    cloud::Cloud c(cfg, cloud::Strategy::kOurs);
    if (dedup) c.obs().trace.set_enabled(true);
    c.multideploy(n, tp);
    auto s = c.multisnapshot();
    if (!s.is_ok()) {
      std::fprintf(stderr, "snapshot failed\n");
      return 1;
    }
    const char* label = dedup ? "on" : "off";
    grow.at("ours").add(label, static_cast<double>(s->repository_growth) /
                                   1e6 / static_cast<double>(n));
    traf.at("ours").add(label, static_cast<double>(s->network_traffic) / 1e9);
    comp.at("ours").add(label, s->completion_seconds);
    hits.at("ours").add(label, static_cast<double>(c.dedup_hits()));
    save.at("ours").add(label,
                        static_cast<double>(c.dedup_saved_bytes()) / 1e9);
    if (dedup) bench::capture_obs(report, c);
    std::fprintf(stderr, "  [dedup] %s done\n", label);
  }
  report.print("Ours at N = " + std::to_string(n) +
                   ", multisnapshot with and without dedup",
               {"repo_growth_per_instance", "snapshot_traffic", "completion",
                "dedup_hits", "saved"});
  std::printf("\nDeduplicated chunks skip both storage and the commit-time\n"
              "data push (only metadata is written), cutting snapshot\n"
              "traffic and repository growth by roughly the shared fraction.\n");
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
