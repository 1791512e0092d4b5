// BlobStore: the BlobSeer-style versioning storage service.
//
// The logical service in one object: blob directory, versioned segment-tree
// metadata (SegmentTreeArena), chunk placement (ProviderManager), and
// per-provider chunk data (ChunkStore). It is the single source of truth in
// both deployment modes:
//
//  * standalone / real mode — thread-safe, synchronous API holding real (or
//    synthetic) bytes; used by examples, tests and the Fig. 6/7 benchmarks;
//  * simulated cluster mode — blob::SimCluster wraps this store and charges
//    network/disk time for each operation, while the store performs the
//    real metadata/data bookkeeping.
//
// Concurrency model: many readers / single writer over the metadata
// (shared_mutex); commits to the SAME blob must be externally serialized by
// using the latest version as base (enforced: committing against a stale
// base returns FAILED_PRECONDITION). This matches how the paper uses
// BlobSeer: one mirroring module owns each cloned image.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "blob/chunk.hpp"
#include "blob/provider_manager.hpp"
#include "blob/segment_tree.hpp"
#include "blob/types.hpp"

namespace vmstorm::blob {

struct StoreConfig {
  std::size_t providers = 1;
  AllocationPolicy policy = AllocationPolicy::kRoundRobin;
  /// Copies kept of each chunk (paper §3.1.3 replication trade-off).
  std::size_t replication = 1;
  /// Content-hash deduplication across commits (the paper's §7 future-work
  /// extension): identical chunk content is stored once and shared between
  /// snapshots/blobs. Matching is by 64-bit content hash + size.
  bool dedup = false;
  std::uint64_t seed = 2011;
};

struct BlobInfo {
  Bytes size = 0;
  Bytes chunk_size = 0;
  Version latest = 0;
  std::uint64_t chunk_count = 0;
};

/// One chunk of a pending commit.
struct ChunkWrite {
  std::uint64_t chunk_index = 0;
  ChunkPayload payload;
};

/// Detailed result of a commit: per-write chunk keys and whether each was
/// satisfied by deduplication (content already stored).
struct CommitOutcome {
  Version version = 0;
  std::vector<ChunkKey> keys;
  std::vector<bool> deduplicated;
};

class BlobStore {
 public:
  explicit BlobStore(StoreConfig cfg = StoreConfig{});

  // ---- Blob lifecycle -----------------------------------------------------

  /// Creates a blob of fixed `size` striped at `chunk_size`. Version 0 is
  /// the all-holes snapshot (reads as zeros).
  Result<BlobId> create(Bytes size, Bytes chunk_size);

  /// CLONE (§3.1.4): a new blob whose version 0 equals `src`@`version`,
  /// sharing all chunk data and metadata; O(1) space and time.
  Result<BlobId> clone(BlobId src, Version version);

  Result<BlobInfo> info(BlobId blob) const;
  std::size_t blob_count() const;

  // ---- Whole-range I/O (real/standalone mode) -----------------------------

  /// Copy-on-write write on top of `base`, publishing a new version.
  /// Partially-covered chunks are read-modify-written.
  Result<Version> write(BlobId blob, Version base, Bytes offset,
                        std::span<const std::byte> data);

  /// Like write(), but fills the range with synthetic pattern content (the
  /// pattern byte at (seed, absolute offset)) without materializing bytes —
  /// used to "upload" multi-GB images in simulations.
  Result<Version> write_pattern(BlobId blob, Version base, Bytes offset,
                                Bytes length, std::uint64_t seed);

  /// Reads from a snapshot; holes read as zeros.
  Status read(BlobId blob, Version version, Bytes offset,
              std::span<std::byte> out) const;

  // ---- Chunk-level API (mirroring module & simulation) --------------------

  /// Locations of the chunks covering byte range [range.lo, range.hi).
  Result<std::vector<ChunkLocation>> locate(BlobId blob, Version version,
                                            ByteRange range) const;

  /// COMMIT (§3.1.4): publishes base + updates as the next version.
  /// `base` must be the blob's latest version (optimistic check).
  Result<Version> commit_chunks(BlobId blob, Version base,
                                std::vector<ChunkWrite> writes);

  /// commit_chunks with per-chunk placement/dedup details (used by the
  /// simulated client to charge only the transfers that really happen).
  Result<CommitOutcome> commit_chunks_detailed(BlobId blob, Version base,
                                               std::vector<ChunkWrite> writes);

  /// All providers holding `key` (primary first). Size == replication
  /// unless the pool is smaller.
  std::vector<ProviderId> replicas_of(ChunkKey key) const;

  /// Drops one replica (failure injection for availability tests). Reads
  /// fall back to surviving replicas.
  Status drop_replica(ChunkKey key, ProviderId provider);

  // ---- Introspection ------------------------------------------------------

  const StoreConfig& config() const { return cfg_; }
  ProviderManager& provider_manager() { return providers_; }

  /// Total logical bytes stored across providers (the storage-consumption
  /// measure behind the paper's "90 % storage savings" claim).
  Bytes stored_bytes() const;

  /// Metadata nodes ever allocated (shadowing efficiency measure).
  std::size_t metadata_nodes() const;

  /// Segment-tree nodes touched by locate/commit traversals (metadata
  /// access cost; the obs layer exports this as blob.metadata_node_visits).
  std::uint64_t metadata_node_visits() const;

  /// Deduplication counters (zero unless cfg.dedup).
  std::uint64_t dedup_hits() const;
  Bytes dedup_saved_bytes() const;

  friend Status save_store(const BlobStore& store, std::ostream& out);
  friend Result<std::unique_ptr<BlobStore>> load_store(std::istream& in);

 private:
  struct BlobRecord {
    Bytes size = 0;
    Bytes chunk_size = 0;
    std::vector<NodeRef> roots;  // roots[v] = segment tree root of version v
  };

  const BlobRecord* find_locked(BlobId blob) const;
  BlobRecord* find_locked(BlobId blob);
  /// Reads within one located chunk: holes read as zeros, and a chunk
  /// whose primary copy is gone is read from a surviving replica. The
  /// caller holds mutex_ (either mode).
  Status read_chunk_locked(const ChunkLocation& loc, Bytes offset,
                           std::span<std::byte> out) const;
  Result<Version> commit_locked(BlobId blob, Version base,
                                std::map<std::uint64_t, ChunkLocation> updates);
  /// The one write loop behind write() and write_pattern(): checks
  /// [offset, offset + length) against the blob, takes each fully covered
  /// chunk from `whole(chunk_base, chunk_len)`, reads each boundary
  /// chunk's bytes on `base` and has `overlay(lo, out)` write the range
  /// [lo, lo + out.size()) over them, then commits the chunks on `base`.
  Result<Version> write_chunks(
      BlobId blob, Version base, Bytes offset, Bytes length,
      const std::function<ChunkPayload(Bytes, Bytes)>& whole,
      const std::function<void(Bytes, std::span<std::byte>)>& overlay);

  StoreConfig cfg_;
  mutable std::shared_mutex mutex_;
  SegmentTreeArena arena_;
  ProviderManager providers_;
  std::vector<std::unique_ptr<ChunkStore>> chunk_stores_;
  std::map<BlobId, BlobRecord> blobs_;
  std::map<ChunkKey, std::vector<ProviderId>> replica_map_;
  // content hash -> (key, size); only populated when cfg.dedup.
  std::map<std::uint64_t, std::pair<ChunkKey, Bytes>> dedup_map_;
  std::uint64_t dedup_hits_ = 0;
  Bytes dedup_saved_ = 0;
  BlobId next_blob_ = 1;
  std::atomic<ChunkKey> next_key_{1};
};

}  // namespace vmstorm::blob
