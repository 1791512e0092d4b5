// SimImage: cost-model twin of qcow::Image for cluster simulations.
//
// Replays the exact I/O translation the real format performs — request-
// granularity read-through to the backing file, whole-cluster copy-on-write
// on first write — but charges simulated time (local disk, network to the
// PVFS backing store) instead of moving bytes. Allocation state evolves
// identically to the real Image given the same operation sequence, which a
// cross-validation test asserts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/interval.hpp"
#include "common/units.hpp"
#include "dfs/sim_dfs.hpp"
#include "net/network.hpp"
#include "sim/task.hpp"
#include "storage/disk.hpp"
#include "storage/vm_disk.hpp"

namespace vmstorm::qcow {

class SimImage final : public storage::VmDisk {
 public:
  SimImage(dfs::SimDfs& backing_dfs, dfs::FileId backing_file,
           storage::Disk& local_disk, net::NodeId node, Bytes virtual_size,
           Bytes cluster_size = 64_KiB, std::uint64_t instance_salt = 0);

  Bytes virtual_size() const { return virtual_size_; }
  Bytes cluster_size() const { return cluster_size_; }
  std::uint64_t cluster_count() const {
    return block_count(virtual_size_, cluster_size_);
  }

  sim::Task<void> read(Bytes offset, Bytes length) override;
  sim::Task<void> write(Bytes offset, Bytes length) override;

  bool cluster_allocated(std::uint64_t index) const {
    return allocated_[index];
  }
  std::uint64_t allocated_clusters() const { return allocated_count_; }
  Bytes backing_bytes_read() const { return backing_bytes_read_; }
  std::uint64_t backing_reads() const { return backing_reads_; }

  /// Size of the local qcow2 file a snapshot must copy (header + tables +
  /// allocated clusters) — what the Fig. 5 baseline ships back to PVFS.
  Bytes host_file_bytes() const;

  /// Adopts another image's allocation map (resuming a snapshotted qcow2
  /// file that was copied onto this node); charges no I/O.
  void adopt_allocation(const SimImage& other);

 private:
  sim::Task<void> ensure_allocated(std::uint64_t index);
  std::uint64_t local_cache_key(std::uint64_t cluster) const;

  dfs::SimDfs* dfs_;
  dfs::FileId backing_file_;
  storage::Disk* local_disk_;
  net::NodeId node_;
  Bytes virtual_size_;
  Bytes cluster_size_;
  std::uint64_t salt_;
  std::vector<bool> allocated_;
  std::uint64_t allocated_count_ = 0;
  Bytes backing_bytes_read_ = 0;
  std::uint64_t backing_reads_ = 0;
};

}  // namespace vmstorm::qcow
