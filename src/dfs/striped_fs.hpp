// PVFS-style striped distributed file system (the qcow2 baseline's backing
// store, §5.2 "qcow2 over PVFS").
//
// Files are striped round-robin at a fixed stripe size over N data servers
// (PVFS's default simple_stripe distribution); metadata (name, size,
// stripe map) is implicit from the deterministic layout, mirroring PVFS's
// avoidance of a central metadata bottleneck. Like BlobStore, this class is
// the real logical store; dfs::SimDfs charges simulated time around it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "blob/chunk.hpp"
#include "common/interval.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm::dfs {

using FileId = std::uint32_t;
using ServerId = std::uint32_t;

struct StripePiece {
  std::uint64_t stripe_index = 0;
  ServerId server = 0;
  Bytes offset_in_file = 0;  // where this piece starts in the file
  Bytes offset_in_stripe = 0;
  Bytes length = 0;
};

struct FileInfo {
  std::string name;
  Bytes size = 0;
  Bytes stripe_size = 0;
};

class StripedFs {
 public:
  StripedFs(std::size_t server_count, Bytes default_stripe_size = 256_KiB);

  Result<FileId> create(const std::string& name);
  Result<FileId> open(const std::string& name) const;
  Status remove(const std::string& name);
  Result<FileInfo> stat(FileId file) const;
  std::size_t file_count() const;
  std::size_t server_count() const { return server_count_; }

  /// Writes (extends the file if needed).
  Status write(FileId file, Bytes offset, std::span<const std::byte> data);

  /// Synthetic-content write (see blob::ChunkPayload::pattern).
  Status write_pattern(FileId file, Bytes offset, Bytes length,
                       std::uint64_t seed);

  /// Reads; short reads past EOF are an error, holes read as zeros.
  Status read(FileId file, Bytes offset, std::span<std::byte> out) const;

  /// The stripe pieces covering [offset, offset+length), in order — the
  /// layout query SimDfs uses to charge per-server costs.
  Result<std::vector<StripePiece>> layout(FileId file, Bytes offset,
                                          Bytes length) const;

  /// Logical bytes stored on one server / total.
  Bytes stored_bytes_on(ServerId s) const;
  Bytes stored_bytes() const;

 private:
  struct FileRecord {
    FileInfo info;
    // stripe index -> payload (stripe-sized except possibly the last).
    std::map<std::uint64_t, blob::ChunkPayload> stripes;
  };

  ServerId server_of(std::uint64_t stripe_index) const {
    return static_cast<ServerId>(stripe_index % server_count_);
  }

  std::size_t server_count_;
  Bytes default_stripe_size_;
  mutable std::mutex mutex_;
  std::map<FileId, FileRecord> files_;
  std::map<std::string, FileId> by_name_;
  FileId next_file_ = 1;
};

}  // namespace vmstorm::dfs
