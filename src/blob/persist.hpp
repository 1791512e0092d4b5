// Repository persistence: serialize a BlobStore (metadata + chunk data) to
// a single repository file and load it back.
//
// Format (little-endian on every host, common/byte_codec.hpp; versioned):
//   magic "VMSTREPO" | format version | StoreConfig |
//   segment-tree arena | blob directory | replica map | dedup map |
//   per-provider chunk stores (payloads as kind descriptors or raw bytes)
//
// Synthetic payloads persist as their (seed, bias, size) descriptors, so a
// repository holding multi-GB pattern images serializes in kilobytes.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "blob/store.hpp"

namespace vmstorm::blob {

/// The full repository state, as the bytes of a repository file.
Result<std::string> save_store(const BlobStore& store);
Status save_store_file(const BlobStore& store, const std::string& path);

/// Reconstructs a repository. The returned store is a faithful copy:
/// blob ids, versions, chunk placement and content all survive. Bytes that
/// are not a whole repository are CORRUPTION.
Result<std::unique_ptr<BlobStore>> load_store(std::string_view bytes);
Result<std::unique_ptr<BlobStore>> load_store_file(const std::string& path);

}  // namespace vmstorm::blob
