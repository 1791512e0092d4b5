#include "util/bench_util.hpp"

#include <cstdio>

#include "common/env.hpp"

namespace vmstorm::bench {

bool quick_mode() {
  const char* q = common::env_or("VMSTORM_QUICK");
  return q != nullptr && q[0] == '1';
}

std::vector<std::size_t> instance_sweep() {
  if (quick_mode()) return {1, 10, 30};
  return {1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110};
}

cloud::CloudConfig paper_cloud_config(std::size_t nodes) {
  cloud::CloudConfig cfg;
  cfg.compute_nodes = nodes;
  cfg.image_size = 2_GiB;
  cfg.chunk_size = 256_KiB;
  cfg.qcow_cluster_size = 64_KiB;
  // Network/disk defaults already encode the §5.1 measurements
  // (117.5 MB/s, 0.1 ms; 55 MB/s disks).
  cfg.broadcast.chunk_size = 4_MiB;  // staging granularity; timing-neutral
  cfg.seed = 2011;
  return cfg;
}

vm::BootTraceParams paper_boot_params() {
  vm::BootTraceParams p;  // defaults encode the §5.2 workload
  return p;
}

void print_header(const std::string& figure, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), what.c_str());
  std::printf("Paper: Nicolae et al., \"Going Back and Forth\", HPDC'11.\n");
  std::printf("paper columns are digitized from the published figure;\n");
  std::printf("shapes/orderings are the reproduction target, not absolutes.\n");
  if (quick_mode()) std::printf("[VMSTORM_QUICK=1: reduced sweep]\n");
  std::printf("==============================================================\n");
}

}  // namespace vmstorm::bench
