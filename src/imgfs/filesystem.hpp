// imgfs: a small extent-based filesystem living INSIDE a VM image.
//
// Stand-in for the guest filesystem: the paper's §5.4 experiment runs
// Bonnie++ on the filesystem inside the VM, whose I/O the hypervisor
// translates into image-level reads/writes. imgfs provides exactly that
// translation for our workload generators, over any BlockDevice (the
// mirroring module, a plain local file, or memory).
//
// Design (deliberately simple, like early-unix FFS):
//   block 0         superblock
//   blocks 1..b     data-block allocation bitmap
//   blocks b+1..i   inode table (fixed number of inodes)
//   blocks i+1..N   data blocks
//
// Inodes carry a short name (flat root-directory namespace — enough for
// benchmark workloads) and up to 12 extents. Metadata is cached in memory
// and written through on mutation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "imgfs/block_device.hpp"

namespace vmstorm::imgfs {

using InodeId = std::uint32_t;
inline constexpr InodeId kInvalidInode = 0xffffffffu;

struct FsOptions {
  Bytes block_size = 4096;
  std::uint32_t max_inodes = 4096;
};

struct FileStat {
  InodeId inode = kInvalidInode;
  std::string name;
  Bytes size = 0;
  std::uint32_t extents = 0;
};

struct FsStats {
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_free = 0;
  std::uint32_t inodes_total = 0;
  std::uint32_t inodes_free = 0;
};

class FileSystem {
 public:
  static constexpr std::uint32_t kMaxExtents = 12;
  static constexpr std::size_t kMaxName = 43;

  /// Formats the device and mounts the fresh filesystem.
  static Result<std::unique_ptr<FileSystem>> format(BlockDevice& dev,
                                                    FsOptions opts = FsOptions{});

  /// Mounts an existing filesystem (reads superblock, bitmap, inodes).
  static Result<std::unique_ptr<FileSystem>> mount(BlockDevice& dev);

  Result<InodeId> create(const std::string& name);
  Result<InodeId> lookup(const std::string& name) const;
  Status remove(const std::string& name);
  Result<FileStat> stat(InodeId inode) const;
  std::vector<FileStat> list() const;

  /// Reads [offset, offset+out.size()) of the file; fails past EOF.
  Status read(InodeId inode, Bytes offset, std::span<std::byte> out);

  /// Writes, extending the file (and allocating blocks/extents) as needed.
  Status write(InodeId inode, Bytes offset, std::span<const std::byte> in);

  /// Shrinks or grows (sparse growth not supported: grows are zero-filled).
  Status truncate(InodeId inode, Bytes new_size);

  FsStats stats() const;
  const FsOptions& options() const { return opts_; }

 private:
  struct Extent {
    std::uint64_t start = 0;  // block index
    std::uint64_t count = 0;
  };
  struct Inode {
    bool used = false;
    Bytes size = 0;
    std::uint32_t extent_count = 0;
    Extent extents[kMaxExtents];
    char name[kMaxName + 1] = {};
  };

  FileSystem(BlockDevice& dev, FsOptions opts) : dev_(&dev), opts_(opts) {}

  Status compute_layout();
  Status persist_superblock();
  Status persist_bitmap_block(std::uint64_t bitmap_block);
  /// Persists each listed bitmap block once (the list may repeat blocks).
  Status persist_bitmap_blocks(std::vector<std::uint64_t> blocks);
  Status persist_inode(InodeId id);
  /// CORRUPTION unless a mounted superblock's layout fits a device of
  /// `device_size` bytes and holds `max_inodes` inodes.
  Status check_layout(Bytes device_size, std::uint64_t max_inodes) const;
  Status load_all();

  /// Allocates up to `want` contiguous blocks (first fit); returns the run.
  Result<Extent> allocate_run(std::uint64_t want);
  void free_extent(const Extent& e, std::vector<std::uint64_t>* dirty_bitmap_blocks);

  /// Maps a file byte offset to (device byte offset, contiguous bytes).
  Result<std::pair<Bytes, Bytes>> map_offset(const Inode& ino, Bytes offset) const;

  Status grow_to(Inode& ino, InodeId id, Bytes new_size);

  BlockDevice* dev_;
  FsOptions opts_;
  std::uint64_t bitmap_start_ = 0;   // block index
  std::uint64_t bitmap_blocks_ = 0;
  std::uint64_t inode_start_ = 0;
  std::uint64_t inode_blocks_ = 0;
  std::uint64_t data_start_ = 0;
  std::uint64_t total_blocks_ = 0;
  std::vector<bool> bitmap_;         // data blocks only: index 0 == data_start_
  std::vector<Inode> inodes_;
  std::uint64_t free_blocks_ = 0;
};

}  // namespace vmstorm::imgfs
