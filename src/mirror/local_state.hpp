// The local-modification manager and R/W translator of the mirroring
// module (paper §3.3, §4.2) as pure, driver-independent logic.
//
// LocalState tracks, per chunk, which byte ranges of the image are mirrored
// on the local disk and which have been locally written (dirty). The two
// access strategies of §3.3 are both implemented and individually
// switchable (the ablation benchmark exercises all four combinations):
//
//  * strategy 1 — whole-chunk read prefetch: a read touching any
//    not-fully-mirrored chunk fetches the *full minimal set of chunks*
//    covering the request, improving correlated reads at small chunk sizes;
//  * strategy 2 — single contiguous region per chunk: a write that would
//    leave a gap inside a chunk triggers a remote read filling the gap,
//    bounding fragmentation metadata to O(1) per chunk.
//
// Drivers (the real VirtualDisk and the simulated SimVirtualDisk) call
// plan_read / plan_write, execute the returned remote fetches, then call
// apply_fetch / apply_write. COMMIT uses plan_commit to complete dirty
// chunks before publishing them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm::mirror {

struct MirrorConfig {
  Bytes image_size = 0;
  Bytes chunk_size = 256_KiB;  // the paper's choice (§5.2)
  bool prefetch_whole_chunks = true;   // §3.3 strategy 1
  bool single_region_per_chunk = true; // §3.3 strategy 2
};

class LocalState {
 public:
  explicit LocalState(MirrorConfig cfg);

  const MirrorConfig& config() const { return cfg_; }
  std::uint64_t chunk_count() const { return chunks_.size(); }

  /// Byte range of chunk `ci` < chunk_count() (the last chunk may be short).
  ByteRange chunk_range(std::uint64_t ci) const;

  // ---- Read path ----------------------------------------------------------

  /// Remote fetches required before `req` can be served locally. Ranges are
  /// in image coordinates, ordered, disjoint; empty if fully mirrored.
  std::vector<ByteRange> plan_read(ByteRange req) const;

  // ---- Write path ---------------------------------------------------------

  /// Gap-filling remote fetches required before `req` may be written
  /// (strategy 2). Never overlaps `req` itself (those bytes are about to be
  /// overwritten anyway).
  std::vector<ByteRange> plan_write(ByteRange req) const;

  // ---- State transitions --------------------------------------------------

  /// Marks a fetched range as mirrored.
  void apply_fetch(ByteRange r);

  /// Marks a written range as mirrored and dirty.
  void apply_write(ByteRange r);

  // ---- COMMIT support -----------------------------------------------------

  /// Indices of chunks with local modifications.
  std::vector<std::uint64_t> dirty_chunks() const;

  /// Fetches needed to complete every dirty chunk (a committed chunk must
  /// be whole: the snapshot stores full chunks).
  std::vector<ByteRange> plan_commit() const;

  /// After a successful COMMIT: dirty flags clear; the committed chunks are
  /// fully mirrored (plan_commit's fetches must have been applied).
  void clear_dirty();

  // ---- Queries ------------------------------------------------------------

  bool is_mirrored(ByteRange r) const;
  bool is_dirty_chunk(std::uint64_t ci) const { return chunks_[ci].dirty; }
  Bytes mirrored_bytes() const;
  Bytes dirty_bytes() const;

  /// Total fragments across chunks. With strategy 2 this is bounded by the
  /// chunk count (the §3.3 guarantee); without it, unbounded.
  std::size_t fragment_count() const;

  /// True iff every chunk's mirrored set is a single contiguous range.
  bool single_region_invariant_holds() const;

  // ---- Persistence (§4.2: metadata written on close, restored on open) ----

  std::string serialize() const;
  static Result<LocalState> deserialize(const std::string& data);

 private:
  struct ChunkState {
    RangeSet mirrored;
    RangeSet dirty_ranges;
    bool dirty = false;
  };

  /// r's bytes inside the image, cut into chunks.
  BlockSplit pieces(ByteRange r) const {
    return split_blocks(r.intersect({0, cfg_.image_size}), cfg_.chunk_size);
  }

  MirrorConfig cfg_;
  std::vector<ChunkState> chunks_;
};

}  // namespace vmstorm::mirror
