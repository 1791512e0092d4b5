#include "storage/vm_disk.hpp"

#include <algorithm>

namespace vmstorm::storage {

sim::Task<void> LocalVmDisk::read(Bytes offset, Bytes length) {
  const Bytes end = offset + length;
  for (Bytes block = offset / gran_; block * gran_ < end; ++block) {
    const Bytes lo = std::max(offset, block * gran_);
    const Bytes hi = std::min(end, (block + 1) * gran_);
    co_await disk_->read(key(block), hi - lo);
  }
}

sim::Task<void> LocalVmDisk::write(Bytes offset, Bytes length) {
  const Bytes end = offset + length;
  for (Bytes block = offset / gran_; block * gran_ < end; ++block) {
    const Bytes lo = std::max(offset, block * gran_);
    const Bytes hi = std::min(end, (block + 1) * gran_);
    co_await disk_->write_async(hi - lo, key(block));
  }
}

}  // namespace vmstorm::storage
