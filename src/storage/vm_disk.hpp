// VmDisk: what the hypervisor hands the guest. The boot player (vm) and
// the application phases (cloud) issue every guest I/O through it, and
// each of the three §5.2 deployment strategies implements it directly:
// mirror::SimVirtualDisk (ours), qcow::SimImage (qcow2 over PVFS) and
// LocalVmDisk below (pre-propagation).
#pragma once

#include <cstdint>

#include "common/interval.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/task.hpp"
#include "storage/disk.hpp"

namespace vmstorm::storage {

class VmDisk {
 public:
  virtual ~VmDisk() = default;
  virtual sim::Task<void> read(Bytes offset, Bytes length) = 0;
  virtual sim::Task<void> write(Bytes offset, Bytes length) = 0;
};

/// Pre-propagation baseline: the raw image fully present on the local
/// disk. First touch of a 256 KiB block pays platter time; re-reads hit
/// the page cache. Writes are write-back.
class LocalVmDisk final : public VmDisk {
 public:
  LocalVmDisk(Disk& disk, std::uint64_t instance_salt)
      : disk_(&disk), salt_(instance_salt) {}

  sim::Task<void> read(Bytes offset, Bytes length) override;
  sim::Task<void> write(Bytes offset, Bytes length) override;

 private:
  std::uint64_t key(Bytes block) const {
    return mix64((salt_ << 22) ^ 0x10ca1d15cull ^ block);
  }
  static constexpr Bytes kBlock = 256_KiB;
  Disk* disk_;
  std::uint64_t salt_;
};

}  // namespace vmstorm::storage
