#include "qcow/byte_file.hpp"

#include <cstring>

namespace vmstorm::qcow {

Status MemFile::pread(Bytes offset, std::span<std::byte> out) const {
  if (offset > data_.size() || out.size() > data_.size() - offset) {
    return out_of_range("MemFile read past EOF");
  }
  std::memcpy(out.data(), data_.data() + offset, out.size());
  return Status::ok();
}

Status MemFile::pwrite(Bytes offset, std::span<const std::byte> in) {
  if (in.size() > ~Bytes{0} - offset) {
    return out_of_range("MemFile write past 2^64");
  }
  if (offset + in.size() > data_.size()) data_.resize(offset + in.size());
  std::memcpy(data_.data() + offset, in.data(), in.size());
  return Status::ok();
}

}  // namespace vmstorm::qcow
