// Ablation — the two §3.3 mirroring strategies, individually toggled:
//   strategy 1: whole-chunk read prefetch
//   strategy 2: single contiguous mirrored region per chunk (gap filling)
// Multideployment at fixed N for the four combinations, reporting boot
// time, traffic, request counts and mirror fragmentation.
#include <cstdio>
#include <string>

#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {

int run() {
  bench::print_header("Ablation", "mirroring strategies (§3.3), ours");
  const std::size_t n = bench::quick_mode() ? 8 : 32;
  const auto tp = bench::paper_boot_params();

  bench::Report report("ablation_mirror_strategy", "Ablation",
                       "mirroring strategies (§3.3), ours");
  bench::report_cloud_config(report, bench::paper_cloud_config(n));
  auto& boot = report.panel("avg_boot", "combination", "seconds");
  auto& comp = report.panel("completion", "combination", "seconds");
  auto& traf = report.panel("traffic_per_instance", "combination", "MB");
  auto& msgp = report.panel("messages_per_instance", "combination", "count");

  for (bool s1 : {true, false}) {
    for (bool s2 : {true, false}) {
      auto cfg = bench::paper_cloud_config(n);
      cfg.mirror_prefetch_whole_chunks = s1;
      cfg.mirror_single_region_per_chunk = s2;
      cloud::Cloud c(cfg, cloud::Strategy::kOurs);
      if (s1 && s2) c.obs().trace.set_enabled(true);
      auto m = c.multideploy(n, tp);
      const std::string combo = std::string("prefetch=") + (s1 ? "on" : "off") +
                                ",gapfill=" + (s2 ? "on" : "off");
      boot.at("ours").add(combo, m.boot_seconds.mean());
      comp.at("ours").add(combo, m.completion_seconds);
      traf.at("ours").add(combo,
                          static_cast<double>(m.network_traffic) / 1e6 / n);
      msgp.at("ours").add(
          combo, static_cast<double>(c.network().total_messages()) / n);
      // Snapshot the fully-enabled configuration (both strategies on).
      if (s1 && s2) bench::capture_obs(report, c);
      std::fprintf(stderr, "  [mirror] s1=%d s2=%d done\n", s1, s2);
    }
  }
  report.print("Ours at N = " + std::to_string(n) +
                   ", per mirroring-strategy combination",
               {"avg_boot", "completion", "traffic_per_instance",
                "messages_per_instance"});
  std::printf("\nWhole-chunk prefetch trades a little extra traffic for far\n"
              "fewer (and cheaper) remote requests; gap filling bounds\n"
              "fragmentation metadata to one region per chunk.\n");
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
