// qcow2-style copy-on-write image format (the paper's baseline, [12]).
//
// A faithful, simplified reimplementation of the on-disk scheme QEMU's
// qcow2 uses for backing-file CoW:
//
//   header | L1 table | { L2 tables and data clusters, allocated at EOF }
//
// The virtual disk is divided into clusters (default 64 KiB, qcow2's
// default). A two-level table maps virtual cluster -> host file offset;
// entry 0 means "unallocated": reads fall through to the backing file (at
// request granularity — no prefetch, the behaviour our mirroring module's
// strategy 1 improves on), or zeros without a backing file. The first
// write to a cluster copies the whole cluster from the backing file
// (copy-on-write), allocates it at EOF and updates the tables.
//
// Omitted relative to QEMU: refcounts (no internal snapshots — the paper
// snapshots by copying the whole qcow2 file), compression, and encryption.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/interval.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "qcow/byte_file.hpp"

namespace vmstorm::qcow {

inline constexpr std::uint32_t kQcowMagic = 0x766d7351u;  // "Qsmv"
inline constexpr std::uint32_t kQcowVersion = 1;

struct ImageStats {
  std::uint64_t allocated_clusters = 0;
  std::uint64_t cow_copies = 0;         // cluster copies from backing
  Bytes backing_bytes_read = 0;         // includes CoW copies
  std::uint64_t backing_reads = 0;      // number of backing requests
};

class Image {
 public:
  /// Formats `file` as an empty CoW image of `virtual_size`, optionally
  /// layered over `backing` (a raw image of at least virtual_size bytes).
  static Result<std::unique_ptr<Image>> create(std::unique_ptr<ByteFile> file,
                                               Bytes virtual_size,
                                               Bytes cluster_size = 64_KiB,
                                               ByteFile* backing = nullptr);

  /// Opens an existing image; `backing` must match how it was created.
  static Result<std::unique_ptr<Image>> open(std::unique_ptr<ByteFile> file,
                                             ByteFile* backing = nullptr);

  Bytes virtual_size() const { return virtual_size_; }
  Bytes cluster_size() const { return cluster_size_; }
  std::uint64_t cluster_count() const {
    return block_count(virtual_size_, cluster_size_);
  }

  Status read(Bytes offset, std::span<std::byte> out);
  Status write(Bytes offset, std::span<const std::byte> in);

  bool cluster_allocated(std::uint64_t index) const;
  const ImageStats& stats() const { return stats_; }

  /// Host-file footprint (header + tables + allocated clusters).
  Bytes host_file_size() const { return file_->size(); }

 private:
  Image() = default;

  Status load_tables();
  Status persist_header();
  Result<Bytes> cluster_host_offset(std::uint64_t index) const;
  Result<Bytes> ensure_allocated(std::uint64_t index);
  Bytes allocate_at_eof(Bytes bytes);

  std::unique_ptr<ByteFile> file_;
  ByteFile* backing_ = nullptr;
  Bytes virtual_size_ = 0;
  Bytes cluster_size_ = 0;
  std::uint64_t entries_per_l2_ = 0;
  std::vector<std::uint64_t> l1_;               // L2 table host offsets (0 = none)
  std::vector<std::vector<std::uint64_t>> l2_;  // cached L2 tables
  ImageStats stats_;
};

}  // namespace vmstorm::qcow
