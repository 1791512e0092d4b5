// VirtualDisk: the real (in-process) mirroring module.
//
// Exposes one blob snapshot as a raw, POSIX-like random-access disk —
// the role the FUSE module plays in the paper — performing on-demand
// mirroring (§3.1.2) into an mmapped local file, with the two §3.3 access
// strategies, plus the CLONE and COMMIT control primitives (§3.2, exposed
// in the paper as ioctls).
//
// Lifecycle:
//   open()  — creates/reopens the local mirror file; restores local-
//             modification metadata from the sidecar if present (§4.2),
//             and then the mirror file it describes must still exist at
//             the image's size.
//   pread/pwrite — the guest's I/O: memory copies on the mmapped mirror
//             (§4.2). A read first fetches missing content from the blob
//             store; a fetched range lands in the file with pwrite(2)
//             through a staging buffer and its write-back starts at once.
//             Writes always land locally.
//   clone() — switches the disk's target to a fresh blob sharing all
//             content with the opened snapshot (first phase of a global
//             snapshot: CLONE then COMMIT).
//   commit()— publishes dirty chunks as the target blob's next version,
//             a standalone raw image to any other consumer.
//   close() — fdatasyncs the mirror file, then replaces the sidecar
//             metadata by rename, so a failed save keeps the previous one.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "blob/store.hpp"
#include "common/status.hpp"
#include "mirror/local_file.hpp"
#include "mirror/local_state.hpp"

namespace vmstorm::mirror {

struct VirtualDiskOptions {
  /// Path of the local mirror file (sidecar metadata lives at path+".meta").
  std::string local_path;
  bool prefetch_whole_chunks = true;
  bool single_region_per_chunk = true;
};

struct VirtualDiskStats {
  Bytes remote_bytes_fetched = 0;
  std::uint64_t remote_fetches = 0;
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  std::uint64_t commits = 0;
};

class VirtualDisk {
 public:
  /// Opens `blob`@`version` for mirroring. If a sidecar exists at
  /// `opts.local_path`, the previous session's local state is restored
  /// (its config must match, FAILED_PRECONDITION otherwise), and the mirror
  /// file must exist with the image's size: CORRUPTION otherwise, and no
  /// file is created.
  static Result<std::unique_ptr<VirtualDisk>> open(blob::BlobStore& store,
                                                   blob::BlobId blob,
                                                   blob::Version version,
                                                   VirtualDiskOptions opts);

  Bytes size() const { return state_.config().image_size; }
  blob::BlobId target_blob() const { return target_blob_; }
  blob::Version target_version() const { return target_version_; }

  Status pread(Bytes offset, std::span<std::byte> out);
  Status pwrite(Bytes offset, std::span<const std::byte> in);

  /// CLONE: future commits go to a new blob that shares all content with
  /// the currently-open snapshot. Returns the new blob id.
  Result<blob::BlobId> clone();

  /// COMMIT: publishes local modifications as the target blob's next
  /// version. No-op (returns current version) if nothing is dirty.
  Result<blob::Version> commit();

  /// fdatasync, then replaces the sidecar by rename. The disk stays usable.
  Status close();

  const VirtualDiskStats& stats() const { return stats_; }
  const LocalState& local_state() const { return state_; }

 private:
  VirtualDisk(blob::BlobStore& store, blob::BlobId blob, blob::Version version,
              VirtualDiskOptions opts, LocalState state,
              std::unique_ptr<LocalMirrorFile> file);

  /// Copies `r` from the store into the mirror file through staging_.
  Status fetch(ByteRange r);

  blob::BlobStore* store_;
  VirtualDiskOptions opts_;
  LocalState state_;
  std::unique_ptr<LocalMirrorFile> file_;
  /// Fetched bytes pass through here on their way into the file:
  /// min(chunk size, 1 MiB) long, reused by every fetch.
  std::vector<std::byte> staging_;
  /// Blob/version that future COMMITs build on. Starts as the opened
  /// snapshot; redirected by clone().
  blob::BlobId target_blob_;
  blob::Version target_version_;
  VirtualDiskStats stats_;
};

}  // namespace vmstorm::mirror
