#include "apps/bonnie.hpp"

#include <string>
#include <vector>

#include "common/interval.hpp"
#include "common/rng.hpp"
#include "obs/selfprof.hpp"

namespace vmstorm::apps {

namespace {

// Bonnie measures REAL filesystem throughput (imgfs over memory or POSIX
// devices), not simulated time. All host timing funnels through the one
// sanctioned wall-clock read, obs::SelfProfiler::wall_now().
double wall_now() { return obs::SelfProfiler::wall_now(); }

double seconds_since(double t0) { return wall_now() - t0; }

void fill_block(std::vector<std::byte>* buf, Rng* rng) {
  // Cheap non-constant content: one RNG word per 64 bytes, splatted.
  for (std::size_t i = 0; i < buf->size(); i += 64) {
    const std::uint64_t w = rng->next_u64();
    (*buf)[i] = static_cast<std::byte>(w & 0xff);
  }
}

}  // namespace

Result<BonnieResult> run_bonnie(imgfs::FileSystem& fs,
                                const BonnieConfig& cfg) {
  if (cfg.block == 0 || cfg.total == 0 || cfg.file_size < cfg.block) {
    return invalid_argument("bad bonnie configuration");
  }
  BonnieResult out;
  Rng rng(cfg.seed);
  const std::size_t n_files =
      static_cast<std::size_t>(block_count(cfg.total, cfg.file_size));
  std::vector<imgfs::InodeId> files;
  std::vector<std::byte> buf(cfg.block);

  // Phase 1: sequential block writes.
  {
    const auto t0 = wall_now();
    Bytes remaining = cfg.total;
    for (std::size_t f = 0; f < n_files; ++f) {
      VMSTORM_ASSIGN_OR_RETURN(id, fs.create("bonnie." + std::to_string(f)));
      files.push_back(id);
      Bytes this_file = std::min<Bytes>(cfg.file_size, remaining);
      for (Bytes off = 0; off < this_file; off += cfg.block) {
        fill_block(&buf, &rng);
        VMSTORM_RETURN_IF_ERROR(fs.write(id, off, buf));
      }
      remaining -= this_file;
    }
    out.block_write_kbps = static_cast<double>(cfg.total) / 1024.0 /
                           seconds_since(t0);
  }

  // Phase 2: sequential block reads of everything just written.
  {
    const auto t0 = wall_now();
    for (imgfs::InodeId id : files) {
      VMSTORM_ASSIGN_OR_RETURN(st, fs.stat(id));
      for (Bytes off = 0; off + cfg.block <= st.size; off += cfg.block) {
        VMSTORM_RETURN_IF_ERROR(fs.read(id, off, buf));
      }
    }
    out.block_read_kbps =
        static_cast<double>(cfg.total) / 1024.0 / seconds_since(t0);
  }

  // Phase 3: sequential block overwrite.
  {
    const auto t0 = wall_now();
    for (imgfs::InodeId id : files) {
      VMSTORM_ASSIGN_OR_RETURN(st, fs.stat(id));
      for (Bytes off = 0; off + cfg.block <= st.size; off += cfg.block) {
        fill_block(&buf, &rng);
        VMSTORM_RETURN_IF_ERROR(fs.write(id, off, buf));
      }
    }
    out.block_overwrite_kbps =
        static_cast<double>(cfg.total) / 1024.0 / seconds_since(t0);
  }

  // Phase 4: random seeks (seek + 8 KiB read at a random file offset).
  {
    const auto t0 = wall_now();
    for (std::uint32_t i = 0; i < cfg.seek_ops; ++i) {
      const imgfs::InodeId id = files[rng.uniform_u64(files.size())];
      VMSTORM_ASSIGN_OR_RETURN(st, fs.stat(id));
      if (st.size < cfg.block) continue;
      const Bytes off =
          rng.uniform_u64(st.size - cfg.block) & ~(cfg.block - 1);
      VMSTORM_RETURN_IF_ERROR(fs.read(id, off, buf));
    }
    out.random_seeks_per_s = cfg.seek_ops / seconds_since(t0);
  }

  // Phase 5/6: file creation / deletion rates (empty files).
  {
    const auto t0 = wall_now();
    for (std::uint32_t i = 0; i < cfg.file_ops; ++i) {
      VMSTORM_ASSIGN_OR_RETURN(id, fs.create("tmp." + std::to_string(i)));
      (void)id;
    }
    out.creates_per_s = cfg.file_ops / seconds_since(t0);
  }
  {
    const auto t0 = wall_now();
    for (std::uint32_t i = 0; i < cfg.file_ops; ++i) {
      VMSTORM_RETURN_IF_ERROR(fs.remove("tmp." + std::to_string(i)));
    }
    out.deletes_per_s = cfg.file_ops / seconds_since(t0);
  }
  return out;
}

}  // namespace vmstorm::apps
