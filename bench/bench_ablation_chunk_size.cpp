// Ablation — chunk-size trade-off (§3.1.3): "a chunk that is too large may
// lead to false sharing ... too small implies a higher access overhead".
// Multideployment at fixed N while sweeping the chunk/stripe size.
#include <cstdio>

#include "util/bench_util.hpp"
#include "util/report.hpp"

namespace vmstorm {

int run() {
  bench::print_header("Ablation", "chunk size trade-off (§3.1.3), ours");
  const std::size_t n = bench::quick_mode() ? 8 : 64;
  const auto tp = bench::paper_boot_params();

  bench::Report report("ablation_chunk_size", "Ablation",
                       "chunk size trade-off (§3.1.3), ours");
  bench::report_cloud_config(report, bench::paper_cloud_config(n));
  auto& boot = report.panel("avg_boot", "chunk_bytes", "seconds");
  auto& comp = report.panel("completion", "chunk_bytes", "seconds");
  auto& traf = report.panel("traffic_per_instance", "chunk_bytes", "MB");
  auto& msgp = report.panel("messages_per_instance", "chunk_bytes", "count");

  const std::vector<Bytes> chunks = {64_KiB, 128_KiB, 256_KiB,
                                     512_KiB, 1_MiB, 4_MiB};
  for (Bytes chunk : chunks) {
    auto cfg = bench::paper_cloud_config(n);
    cfg.chunk_size = chunk;
    cloud::Cloud c(cfg, cloud::Strategy::kOurs);
    if (chunk == chunks.back()) c.obs().trace.set_enabled(true);
    auto m = c.multideploy(n, tp);
    const double x = static_cast<double>(chunk);
    boot.at("ours").add(x, m.boot_seconds.mean());
    comp.at("ours").add(x, m.completion_seconds);
    traf.at("ours").add(x, static_cast<double>(m.network_traffic) / 1e6 / n);
    msgp.at("ours").add(
        x, static_cast<double>(c.network().total_messages()) / n);
    if (chunk == chunks.back()) bench::capture_obs(report, c);
    std::fprintf(stderr, "  [chunk] %s done\n",
                 format_bytes(static_cast<double>(chunk)).c_str());
  }
  report.print("Ours at N = " + std::to_string(n) + ", per chunk size",
               {"avg_boot", "completion", "traffic_per_instance",
                "messages_per_instance"});
  std::printf("\nThe paper fixes 256 KiB as the sweet spot between per-chunk\n"
              "overhead (small chunks) and false sharing (large chunks).\n");
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
