// Figure 7 — Bonnie++ operations per second (§5.4): random seeks and file
// creation/deletion on the in-image filesystem, REAL I/O, local raw file
// vs. the mirroring module.
//
// Paper shape: ours lower, "especially with random seeks and file
// deletion", but "the performance penalty in real life is not an issue".
// In-library we lack FUSE's context switches, so the gap is smaller (see
// EXPERIMENTS.md).
#include <cstdio>

#include "util/bench_util.hpp"
#include "util/bonnie_arm.hpp"
#include "util/report.hpp"

namespace vmstorm {
namespace {

apps::BonnieConfig bonnie_config() {
  apps::BonnieConfig cfg;
  cfg.total = bench::quick_mode() ? 32_MiB : 256_MiB;
  cfg.block = 8_KiB;
  cfg.file_size = 32_MiB;
  cfg.seek_ops = bench::quick_mode() ? 2000 : 20000;
  cfg.file_ops = bench::quick_mode() ? 500 : 3000;
  return cfg;
}

Bytes image_size() { return bench::quick_mode() ? 128_MiB : 1_GiB; }

}  // namespace

int run() {
  bench::print_header("Figure 7",
                      "Bonnie++ operations per second (real I/O)");
  const apps::BonnieConfig bc = bonnie_config();
  apps::BonnieResult local, ours, ours_fuse;
  using bench::BonnieArm;
  for (auto [arm, out] : {std::pair{BonnieArm::kLocal, &local},
                          std::pair{BonnieArm::kMirror, &ours},
                          std::pair{BonnieArm::kMirrorFuse, &ours_fuse}}) {
    auto r = bench::run_bonnie_arm(arm, "vmstorm_bench_tmp7", image_size(), bc);
    if (!r.is_ok()) {
      std::fprintf(stderr, "bonnie failed: %s\n",
                   r.status().to_string().c_str());
      return 1;
    }
    *out = *r;
  }

  std::printf("\nours_fuse adds an emulated 12 us/op user/kernel crossing\n"
              "(the overhead the paper's FUSE-based module pays; in-library\n"
              "we don't, so plain 'ours' shows little penalty).\n");
  bench::Report report("fig7_bonnie_ops", "Figure 7",
                       "Bonnie++ operations per second (real I/O)");
  report.config("seek_ops", static_cast<std::uint64_t>(bc.seek_ops));
  report.config("file_ops", static_cast<std::uint64_t>(bc.file_ops));
  report.config("image_size", static_cast<std::uint64_t>(image_size()));

  auto& panel = report.panel("ops_per_s", "operation", "ops_per_s");
  auto& ratio = report.panel("ratio", "operation", "ours_over_local");
  auto row = [&](const char* name, double l, double o, double of,
                 double paper_ratio) {
    panel.at("local").add(name, l);
    panel.at("ours").add(name, o);
    panel.at("ours_fuse").add(name, of);
    ratio.at("ours").add(name, o / l);
    ratio.at("ours_fuse").add(name, of / l);
    ratio.at("paper").add(name, paper_ratio);
  };
  row("RndSeek", local.random_seeks_per_s, ours.random_seeks_per_s,
      ours_fuse.random_seeks_per_s, 0.45);
  row("CreatF", local.creates_per_s, ours.creates_per_s,
      ours_fuse.creates_per_s, 0.85);
  row("DelF", local.deletes_per_s, ours.deletes_per_s,
      ours_fuse.deletes_per_s, 0.40);
  report.print("Operations per second and ratios to local; ratio.paper "
               "digitized from Figure 7",
               {"ops_per_s", "ratio"});
  return report.write() ? 0 : 1;
}

}  // namespace vmstorm

int main() { return vmstorm::run(); }
