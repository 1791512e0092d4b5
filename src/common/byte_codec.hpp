// The one on-disk integer codec: the repository file, the mirror sidecar,
// qcow2's header and tables and imgfs's superblock and inodes all encode
// their fields with it. Fields are fixed-width little-endian, composed with
// shifts, so a file reads the same on a host of either byte order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace vmstorm {

/// Appends fields to a byte string.
class ByteWriter {
 public:
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void bytes(std::span<const std::byte> b) {
    out_.append(reinterpret_cast<const char*>(b.data()), b.size());
  }
  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  template <typename T>
  void put(T v) {
    char b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<char>(v >> (8 * i));
    }
    out_.append(b, sizeof(T));
  }
  std::string out_;
};

/// Reads fields back from bytes it does not own. A read past the end
/// returns false and leaves the position where it was.
class ByteReader {
 public:
  explicit ByteReader(std::string_view in) : in_(in) {}
  explicit ByteReader(std::span<const std::byte> in)
      : in_(reinterpret_cast<const char*>(in.data()), in.size()) {}

  [[nodiscard]] bool u32(std::uint32_t* v) { return get(v); }
  [[nodiscard]] bool u64(std::uint64_t* v) { return get(v); }
  /// The next `n` bytes, as a view into the input.
  [[nodiscard]] bool bytes(std::size_t n, std::string_view* out) {
    if (n > remaining()) return false;
    *out = in_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  template <typename T>
  bool get(T* v) {
    if (sizeof(T) > remaining()) return false;
    *v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      *v |= T{static_cast<unsigned char>(in_[pos_ + i])} << (8 * i);
    }
    pos_ += sizeof(T);
    return true;
  }
  std::string_view in_;
  std::size_t pos_ = 0;
};

}  // namespace vmstorm
