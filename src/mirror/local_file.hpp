// mmap-backed local mirror file (§4.2).
//
// "Whenever a VM image is opened for the first time, an initially empty
// file of the same size is created on the local disk. ... the whole local
// file is mmapped in the host's main memory", turning the guest's local
// reads and writes into memory accesses and leaning on the kernel's
// asynchronous write-back — the effect measured in Figure 6.
//
// Content fetched from the repository does not go through the mapping:
// fill() stores it with pwrite(2) and starts its write-back at once, so a
// fetched page costs no write fault and close() has little left to flush.
// Linux's unified page cache keeps the mapping and the file coherent, and
// sync() (fdatasync) makes pages dirtied through either path durable.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm::mirror {

class LocalMirrorFile {
 public:
  /// What open() asks of the file already at `path`.
  enum class Existing {
    kCreate,   ///< anything: a missing file is created, any size is set
    kRequire,  ///< a file of exactly `size` bytes, else CORRUPTION; a
               ///< sidecar describes its content, so none is created
  };

  /// Opens the file at `path` as `existing` says, sizes it to exactly
  /// `size` bytes (sparse where it grows) and maps it read/write.
  static Result<std::unique_ptr<LocalMirrorFile>> open(const std::string& path,
                                                       Bytes size,
                                                       Existing existing);

  ~LocalMirrorFile();
  LocalMirrorFile(const LocalMirrorFile&) = delete;
  LocalMirrorFile& operator=(const LocalMirrorFile&) = delete;

  std::span<std::byte> data() { return {map_, size_}; }
  std::span<const std::byte> data() const { return {map_, size_}; }
  Bytes size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Writes `bytes` into the file at `offset` with pwrite(2), then asks
  /// the kernel to start writing that range back (a hint: its result is
  /// ignored, sync() decides durability and reports write errors).
  Status fill(Bytes offset, std::span<const std::byte> bytes);

  /// fdatasync: forces every dirty page to the disk, whether the guest
  /// dirtied it through the mapping or fill() wrote it (used before close
  /// for durability; the kernel flushes asynchronously otherwise).
  Status sync();

 private:
  LocalMirrorFile(std::string path, int fd, std::byte* map, Bytes size)
      : path_(std::move(path)), fd_(fd), map_(map), size_(size) {}

  std::string path_;
  int fd_ = -1;
  std::byte* map_ = nullptr;
  Bytes size_ = 0;
};

}  // namespace vmstorm::mirror
