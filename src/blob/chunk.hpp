// Chunk payloads and per-provider chunk stores.
//
// A payload either owns real bytes or is *synthetic*: a (seed, size)
// descriptor whose content is generated deterministically on demand. The
// synthetic form lets cluster-scale simulations (hundreds of 2 GB images)
// behave as if data were real — reads verify byte-exactly — without
// hundreds of gigabytes of RAM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "blob/types.hpp"

namespace vmstorm::blob {

/// Deterministic content byte for (seed, absolute offset). It defines
/// synthetic content, and tests verify data integrity against it.
inline std::byte pattern_byte(std::uint64_t seed, std::uint64_t offset) {
  const std::uint64_t word = mix64(seed ^ (offset >> 3));
  return static_cast<std::byte>((word >> ((offset & 7) * 8)) & 0xff);
}

/// Writes the pattern bytes for [offset, offset + out.size()) into out, the
/// same bytes pattern_byte gives one at a time, at one mix64 per 8-byte word.
/// The only bulk generator: every synthetic-byte read and write goes here.
void fill_pattern(std::uint64_t seed, std::uint64_t offset,
                  std::span<std::byte> out);

class ChunkPayload {
 public:
  enum class Kind { kZeros, kPattern, kBytes };

  ChunkPayload() = default;

  static ChunkPayload zeros(Bytes size) {
    ChunkPayload p;
    p.size_ = size;
    p.kind_ = Kind::kZeros;
    return p;
  }

  /// Synthetic payload: byte j reads as the pattern byte at (seed, bias + j).
  /// With bias = the chunk's base offset in the image, content is a pure
  /// function of (seed, absolute offset) — so reads verify across chunk
  /// boundaries without storing anything.
  static ChunkPayload pattern(std::uint64_t seed, Bytes size, Bytes bias = 0) {
    ChunkPayload p;
    p.size_ = size;
    p.kind_ = Kind::kPattern;
    p.seed_ = seed;
    p.bias_ = bias;
    return p;
  }

  static ChunkPayload own(std::vector<std::byte> bytes) {
    ChunkPayload p;
    p.size_ = bytes.size();
    p.kind_ = Kind::kBytes;
    p.bytes_ = std::move(bytes);
    return p;
  }

  Bytes size() const { return size_; }
  bool is_synthetic() const { return kind_ != Kind::kBytes; }

  /// Copies [offset, offset+out.size()) into out; pattern/zero payloads are
  /// materialized on the fly. Reads past the end are zero-filled.
  void read(Bytes offset, std::span<std::byte> out) const;

  /// Overwrites [offset, offset+in.size()); converts synthetic payloads to
  /// owned bytes first (copy-on-write of the descriptor).
  void write(Bytes offset, std::span<const std::byte> in);

  /// RAM actually held (synthetic payloads hold none).
  Bytes resident_bytes() const { return bytes_.size(); }

  /// FNV-1a hash of the full payload *content* (synthetic payloads are
  /// streamed, not materialized). Equal content => equal hash regardless
  /// of representation; used by the deduplication extension.
  std::uint64_t content_hash() const;

  // Representation accessors (persistence).
  Kind kind() const { return kind_; }
  std::uint64_t seed() const { return seed_; }
  Bytes bias() const { return bias_; }
  const std::vector<std::byte>& raw_bytes() const { return bytes_; }

 private:
  void materialize();

  Bytes size_ = 0;
  Kind kind_ = Kind::kZeros;
  std::uint64_t seed_ = 0;
  Bytes bias_ = 0;
  std::vector<std::byte> bytes_;
};

/// One provider's chunk directory. Thread-safe.
class ChunkStore {
 public:
  void put(ChunkKey key, ChunkPayload payload);
  Status read(ChunkKey key, Bytes offset, std::span<std::byte> out) const;
  bool contains(ChunkKey key) const;
  Status erase(ChunkKey key);

  std::size_t chunk_count() const;

  /// Copy of one payload (persistence).
  Result<ChunkPayload> get(ChunkKey key) const;

  /// All keys, sorted (persistence / diagnostics).
  std::vector<ChunkKey> keys() const;
  /// Logical bytes stored (sum of payload sizes).
  Bytes stored_bytes() const;
  /// Physical RAM held by payload buffers.
  Bytes resident_bytes() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<ChunkKey, ChunkPayload> chunks_;
  Bytes stored_bytes_ = 0;
};

}  // namespace vmstorm::blob
