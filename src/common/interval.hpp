// Half-open byte ranges, block splitting and ordered disjoint range sets.
//
// split_blocks is the one way src/ cuts a byte range into fixed-size blocks
// (mirror chunks, qcow2 clusters, PVFS stripes, cache and bitmap blocks),
// and block_count the one ceil-division; neither wraps near 2^64.
//
// RangeSet is the workhorse of the mirroring module's local-modification
// manager and of several tests: it tracks which byte ranges of an image are
// locally available / dirty, with O(log n) point queries and amortized
// O(log n) insertion.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace vmstorm {

/// Half-open interval [lo, hi). Empty iff lo >= hi.
struct ByteRange {
  Bytes lo = 0;
  Bytes hi = 0;

  constexpr Bytes size() const { return hi > lo ? hi - lo : 0; }
  constexpr bool empty() const { return hi <= lo; }
  constexpr bool contains(Bytes x) const { return x >= lo && x < hi; }
  constexpr bool contains(const ByteRange& o) const {
    return o.empty() || (o.lo >= lo && o.hi <= hi);
  }
  constexpr bool overlaps(const ByteRange& o) const {
    return !empty() && !o.empty() && lo < o.hi && o.lo < hi;
  }

  /// Intersection (possibly empty).
  constexpr ByteRange intersect(const ByteRange& o) const {
    ByteRange r{lo > o.lo ? lo : o.lo, hi < o.hi ? hi : o.hi};
    if (r.hi < r.lo) r.hi = r.lo;
    return r;
  }

  /// Smallest interval containing both (the convex hull); empty inputs are
  /// identity elements.
  constexpr ByteRange hull(const ByteRange& o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {lo < o.lo ? lo : o.lo, hi > o.hi ? hi : o.hi};
  }

  friend constexpr bool operator==(const ByteRange&, const ByteRange&) = default;

  std::string to_string() const;
};

/// The number of `block`-sized blocks covering `size` bytes: the
/// ceil-division (size + block - 1) / block without its wrap near 2^64.
/// Requires block > 0.
constexpr std::uint64_t block_count(Bytes size, Bytes block) {
  return size / block + (size % block != 0 ? 1 : 0);
}

/// One block's share of a split range: block `index` starts at `base`
/// (= index * block), and `range` is the nonempty part of the split range
/// inside it.
struct BlockPiece {
  std::uint64_t index = 0;
  Bytes base = 0;
  ByteRange range;
};

/// The pieces of a range cut at multiples of a block size, in order, for a
/// range-for loop (see split_blocks). The split is its own iterator: it
/// divides once, for the first piece, and steps to each later piece by
/// addition. No sum passes the range's end, so a last block that straddles
/// 2^64 ends the walk instead of wrapping.
class BlockSplit {
 public:
  // An empty or reversed range ends where it starts, so it has no pieces.
  BlockSplit(ByteRange range, Bytes block)
      : hi_(range.empty() ? range.lo : range.hi), block_(block) {
    piece_.index = range.lo / block;
    piece_.base = piece_.index * block;
    piece_.range = {range.lo, block_end(piece_.base)};
  }

  BlockSplit begin() const { return *this; }
  std::default_sentinel_t end() const { return {}; }
  const BlockPiece& operator*() const { return piece_; }
  const BlockPiece* operator->() const { return &piece_; }
  BlockSplit& operator++() {
    ++piece_.index;
    piece_.base = piece_.range.hi;
    piece_.range = {piece_.base, block_end(piece_.base)};
    return *this;
  }
  friend bool operator==(const BlockSplit& s, std::default_sentinel_t) {
    return s.piece_.range.lo >= s.hi_;
  }

 private:
  // min(hi_, base + block_), without forming a sum past hi_.
  Bytes block_end(Bytes base) const {
    return hi_ - base > block_ ? base + block_ : hi_;
  }

  BlockPiece piece_;
  Bytes hi_;
  Bytes block_;
};

/// Cuts `range` at multiples of `block` (> 0). An empty or reversed range
/// yields no pieces.
inline BlockSplit split_blocks(ByteRange range, Bytes block) {
  return {range, block};
}

/// An ordered set of disjoint, non-adjacent half-open ranges.
class RangeSet {
 public:
  RangeSet() = default;

  /// Inserts [r.lo, r.hi), coalescing with overlapping/adjacent ranges.
  void insert(ByteRange r);

  /// Removes [r.lo, r.hi) from the set, splitting ranges as needed.
  void erase(ByteRange r);

  /// True iff every byte of r is present.
  bool contains(const ByteRange& r) const;

  /// True iff at least one byte of r is present.
  bool overlaps(const ByteRange& r) const;

  /// The sub-ranges of r that are *not* in the set, in order. These are the
  /// "gaps" a mirroring read must fetch remotely.
  std::vector<ByteRange> missing_within(const ByteRange& r) const;

  /// The sub-ranges of r that *are* in the set, in order.
  std::vector<ByteRange> present_within(const ByteRange& r) const;

  /// Total number of bytes in the set.
  Bytes total_bytes() const;

  /// Number of disjoint ranges (fragmentation measure).
  std::size_t fragment_count() const { return ranges_.size(); }

  bool empty() const { return ranges_.empty(); }
  void clear() { ranges_.clear(); }

  std::vector<ByteRange> to_vector() const;
  std::string to_string() const;

  friend bool operator==(const RangeSet& a, const RangeSet& b) {
    return a.ranges_ == b.ranges_;
  }

 private:
  // key = lo, value = hi. Invariant: disjoint and non-adjacent
  // (prev.hi < next.lo).
  std::map<Bytes, Bytes> ranges_;
};

}  // namespace vmstorm
