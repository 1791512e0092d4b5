#include "storage/vm_disk.hpp"

namespace vmstorm::storage {

sim::Task<void> LocalVmDisk::read(Bytes offset, Bytes length) {
  for (const BlockPiece& p : split_blocks({offset, offset + length}, kBlock)) {
    co_await disk_->read(key(p.index), p.range.size());
  }
}

sim::Task<void> LocalVmDisk::write(Bytes offset, Bytes length) {
  for (const BlockPiece& p : split_blocks({offset, offset + length}, kBlock)) {
    co_await disk_->write_async(p.range.size(), key(p.index));
  }
}

}  // namespace vmstorm::storage
