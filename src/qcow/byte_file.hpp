// Random-access byte file abstraction the qcow image format is written
// against, with an in-memory implementation for tests/examples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm::qcow {

class ByteFile {
 public:
  virtual ~ByteFile() = default;
  virtual Bytes size() const = 0;
  /// Reads exactly out.size() bytes; fails past EOF.
  virtual Status pread(Bytes offset, std::span<std::byte> out) const = 0;
  /// Writes, growing the file as needed.
  virtual Status pwrite(Bytes offset, std::span<const std::byte> in) = 0;
};

class MemFile final : public ByteFile {
 public:
  MemFile() = default;
  explicit MemFile(std::vector<std::byte> data) : data_(std::move(data)) {}

  Bytes size() const override { return data_.size(); }
  Status pread(Bytes offset, std::span<std::byte> out) const override;
  Status pwrite(Bytes offset, std::span<const std::byte> in) override;

  const std::vector<std::byte>& data() const { return data_; }

 private:
  std::vector<std::byte> data_;
};

}  // namespace vmstorm::qcow
