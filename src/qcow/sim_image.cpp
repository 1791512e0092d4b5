#include "qcow/sim_image.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace vmstorm::qcow {

SimImage::SimImage(dfs::SimDfs& backing_dfs, dfs::FileId backing_file,
                   storage::Disk& local_disk, net::NodeId node,
                   Bytes virtual_size, Bytes cluster_size,
                   std::uint64_t instance_salt)
    : dfs_(&backing_dfs), backing_file_(backing_file), local_disk_(&local_disk),
      node_(node), virtual_size_(virtual_size), cluster_size_(cluster_size),
      salt_(instance_salt), allocated_(cluster_count(), false) {}

std::uint64_t SimImage::local_cache_key(std::uint64_t cluster) const {
  return mix64((salt_ << 24) ^ 0x9c0c0000ULL ^ cluster);
}

sim::Task<void> SimImage::ensure_allocated(std::uint64_t index) {
  if (allocated_[index]) co_return;
  // Copy-on-write: fetch the full cluster from the backing file on PVFS,
  // then write it to the local qcow2 file.
  const Bytes base = index * cluster_size_;
  const Bytes live = std::min(cluster_size_, virtual_size_ - base);
  co_await dfs_->read(node_, backing_file_, base, live);
  backing_bytes_read_ += live;
  ++backing_reads_;
  co_await local_disk_->write_async(live, local_cache_key(index));
  allocated_[index] = true;
  ++allocated_count_;
}

sim::Task<void> SimImage::read(Bytes offset, Bytes length) {
  for (const BlockPiece& p :
       split_blocks({offset, offset + length}, cluster_size_)) {
    const Bytes n = p.range.size();
    if (allocated_[p.index]) {
      co_await local_disk_->read(local_cache_key(p.index), n);
    } else {
      // Request-granularity pass-through: only this piece travels.
      co_await dfs_->read(node_, backing_file_, p.range.lo, n);
      backing_bytes_read_ += n;
      ++backing_reads_;
    }
  }
}

sim::Task<void> SimImage::write(Bytes offset, Bytes length) {
  for (const BlockPiece& p :
       split_blocks({offset, offset + length}, cluster_size_)) {
    co_await ensure_allocated(p.index);
    co_await local_disk_->write_async(p.range.size(), local_cache_key(p.index));
  }
}

void SimImage::adopt_allocation(const SimImage& other) {
  allocated_ = other.allocated_;
  allocated_count_ = other.allocated_count_;
}

Bytes SimImage::host_file_bytes() const {
  // Header + L1 + L2 tables (approximated as fully dense) + clusters.
  const std::uint64_t entries_per_l2 = cluster_size_ / 8;
  const std::uint64_t l2_tables = block_count(cluster_count(), entries_per_l2);
  return 64 + l2_tables * 8 + l2_tables * entries_per_l2 * 8 +
         allocated_count_ * cluster_size_;
}

}  // namespace vmstorm::qcow
