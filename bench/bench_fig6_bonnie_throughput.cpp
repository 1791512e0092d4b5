// Figure 6 — Bonnie++ sustained throughput (§5.4): sequential block
// write / read / overwrite in 8 KiB blocks on the filesystem inside the
// image, REAL I/O on this host, comparing:
//   local — imgfs over a raw local file accessed with pread/pwrite
//           (the "hypervisor has direct local access" baseline), vs.
//   ours  — imgfs over the mirroring module's VirtualDisk (mmapped local
//           mirror + BlobSeer-style store underneath).
//
// Expected shape (paper): reads on par; write and overwrite ~2x higher for
// ours thanks to the mmap write-back path. Absolute numbers depend on this
// host's storage. NOTE: the paper's FUSE user/kernel context-switch
// overhead does not exist in-library, so ours has a smaller handicap here
// than in the paper (see EXPERIMENTS.md).
#include <cstdio>

#include "util/bench_util.hpp"
#include "util/bonnie_arm.hpp"
#include "util/report.hpp"

namespace vmstorm {
namespace {

apps::BonnieConfig bonnie_config() {
  apps::BonnieConfig cfg;
  // Paper: 800 MB written/read back out of a 2 GB image, 8 KiB blocks.
  cfg.total = bench::quick_mode() ? 64_MiB : 800_MiB;
  cfg.block = 8_KiB;
  cfg.file_size = 64_MiB;
  cfg.seek_ops = 2000;
  cfg.file_ops = 1000;
  return cfg;
}

Bytes image_size() { return bench::quick_mode() ? 256_MiB : 2_GiB; }

}  // namespace

int run() {
  bench::print_header("Figure 6",
                      "Bonnie++ sustained throughput, 8 KiB blocks (real I/O)");
  const apps::BonnieConfig bc = bonnie_config();
  apps::BonnieResult local, ours;
  for (auto [arm, out] : {std::pair{bench::BonnieArm::kLocal, &local},
                          std::pair{bench::BonnieArm::kMirror, &ours}}) {
    auto r = bench::run_bonnie_arm(arm, "vmstorm_bench_tmp", image_size(), bc);
    if (!r.is_ok()) {
      std::fprintf(stderr, "bonnie failed: %s\n",
                   r.status().to_string().c_str());
      return 1;
    }
    *out = *r;
  }

  bench::Report report("fig6_bonnie_throughput", "Figure 6",
                       "Bonnie++ sustained throughput, 8 KiB blocks (real I/O)");
  report.config("total_bytes", static_cast<std::uint64_t>(bc.total));
  report.config("block_bytes", static_cast<std::uint64_t>(bc.block));
  report.config("image_size", static_cast<std::uint64_t>(image_size()));

  auto& panel = report.panel("throughput", "pattern", "KB_per_s");
  auto& ratio = report.panel("ratio", "pattern", "ours_over_local");
  auto row = [&](const char* name, double l, double o, double paper_ratio) {
    panel.at("local").add(name, l);
    panel.at("ours").add(name, o);
    ratio.at("measured").add(name, o / l);
    ratio.at("paper").add(name, paper_ratio);
  };
  row("BlockW", local.block_write_kbps, ours.block_write_kbps, 1.9);
  row("BlockR", local.block_read_kbps, ours.block_read_kbps, 1.0);
  row("BlockO", local.block_overwrite_kbps, ours.block_overwrite_kbps, 1.9);
  report.print("Throughput (KB/s) and ours/local; ratio.paper digitized from "
               "Figure 6",
               {"throughput", "ratio"});
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
