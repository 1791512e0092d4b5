#include "mirror/local_state.hpp"

#include <algorithm>
#include <cassert>

#include "common/byte_codec.hpp"

namespace vmstorm::mirror {

namespace {

constexpr std::uint64_t kSidecarMagic = 0x4d49525253543031ull;  // "MIRRST01"

/// r minus cut: zero, one or two pieces appended to out.
void range_subtract(ByteRange r, ByteRange cut, std::vector<ByteRange>* out) {
  if (!r.overlaps(cut)) {
    if (!r.empty()) out->push_back(r);
    return;
  }
  if (r.lo < cut.lo) out->push_back({r.lo, cut.lo});
  if (cut.hi < r.hi) out->push_back({cut.hi, r.hi});
}

}  // namespace

LocalState::LocalState(MirrorConfig cfg) : cfg_(cfg) {
  assert(cfg_.image_size > 0 && cfg_.chunk_size > 0);
  chunks_.resize(block_count(cfg_.image_size, cfg_.chunk_size));
}

ByteRange LocalState::chunk_range(std::uint64_t ci) const {
  const Bytes lo = ci * cfg_.chunk_size;
  return {lo, lo + std::min(cfg_.chunk_size, cfg_.image_size - lo)};
}

std::vector<ByteRange> LocalState::plan_read(ByteRange req) const {
  std::vector<ByteRange> fetches;
  if (req.empty()) return fetches;
  assert(req.hi <= cfg_.image_size);
  for (const BlockPiece& p : pieces(req)) {
    const RangeSet& mirrored = chunks_[p.index].mirrored;
    if (mirrored.contains(p.range)) continue;
    const ByteRange cr = chunk_range(p.index);
    // Strategy 1: fetch the chunk's full missing content, not just the
    // requested slice (minimal set of whole chunks covering the request).
    ByteRange target = cfg_.prefetch_whole_chunks ? cr : p.range;
    if (!cfg_.prefetch_whole_chunks && cfg_.single_region_per_chunk) {
      // Without whole-chunk prefetch, a read could otherwise fragment the
      // chunk; widen it to the hull so the single-region invariant holds.
      auto present = mirrored.present_within(cr);
      if (!present.empty()) {
        target = ByteRange{present.front().lo, present.back().hi}.hull(p.range);
      }
    }
    for (const ByteRange& gap : mirrored.missing_within(target)) {
      fetches.push_back(gap);
    }
  }
  return fetches;
}

std::vector<ByteRange> LocalState::plan_write(ByteRange req) const {
  std::vector<ByteRange> fetches;
  if (req.empty() || !cfg_.single_region_per_chunk) return fetches;
  assert(req.hi <= cfg_.image_size);
  for (const BlockPiece& p : pieces(req)) {
    const RangeSet& mirrored = chunks_[p.index].mirrored;
    // Current hull of mirrored content within this chunk.
    auto present = mirrored.present_within(chunk_range(p.index));
    if (present.empty()) continue;  // fresh chunk: the write itself is one region
    const ByteRange hull =
        ByteRange{present.front().lo, present.back().hi}.hull(p.range);
    // Strategy 2: everything inside the hull must end up mirrored; fetch
    // the gaps that the write itself will not cover.
    for (const ByteRange& gap : mirrored.missing_within(hull)) {
      range_subtract(gap, p.range, &fetches);
    }
  }
  return fetches;
}

void LocalState::apply_fetch(ByteRange r) {
  if (r.empty()) return;
  assert(r.hi <= cfg_.image_size);
  for (const BlockPiece& p : pieces(r)) {
    chunks_[p.index].mirrored.insert(p.range);
  }
}

void LocalState::apply_write(ByteRange r) {
  if (r.empty()) return;
  assert(r.hi <= cfg_.image_size);
  for (const BlockPiece& p : pieces(r)) {
    ChunkState& c = chunks_[p.index];
    c.mirrored.insert(p.range);
    c.dirty_ranges.insert(p.range);
    c.dirty = true;
  }
}

std::vector<std::uint64_t> LocalState::dirty_chunks() const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t ci = 0; ci < chunks_.size(); ++ci) {
    if (chunks_[ci].dirty) out.push_back(ci);
  }
  return out;
}

std::vector<ByteRange> LocalState::plan_commit() const {
  std::vector<ByteRange> fetches;
  for (std::uint64_t ci = 0; ci < chunks_.size(); ++ci) {
    if (!chunks_[ci].dirty) continue;
    for (const ByteRange& gap :
         chunks_[ci].mirrored.missing_within(chunk_range(ci))) {
      fetches.push_back(gap);
    }
  }
  return fetches;
}

void LocalState::clear_dirty() {
  for (std::uint64_t ci = 0; ci < chunks_.size(); ++ci) {
    ChunkState& c = chunks_[ci];
    if (!c.dirty) continue;
    // A committed chunk must be complete (plan_commit fetches applied).
    assert(c.mirrored.contains(chunk_range(ci)));
    c.dirty = false;
    c.dirty_ranges.clear();
  }
}

bool LocalState::is_mirrored(ByteRange r) const {
  for (const BlockPiece& p : pieces(r)) {
    if (!chunks_[p.index].mirrored.contains(p.range)) return false;
  }
  return true;
}

Bytes LocalState::mirrored_bytes() const {
  Bytes n = 0;
  for (const auto& c : chunks_) n += c.mirrored.total_bytes();
  return n;
}

Bytes LocalState::dirty_bytes() const {
  Bytes n = 0;
  for (const auto& c : chunks_) n += c.dirty_ranges.total_bytes();
  return n;
}

std::size_t LocalState::fragment_count() const {
  std::size_t n = 0;
  for (const auto& c : chunks_) n += c.mirrored.fragment_count();
  return n;
}

bool LocalState::single_region_invariant_holds() const {
  for (const auto& c : chunks_) {
    if (c.mirrored.fragment_count() > 1) return false;
  }
  return true;
}

// Binary layout: magic, config, then per chunk: dirty flag + range lists.
std::string LocalState::serialize() const {
  ByteWriter w;
  w.u64(kSidecarMagic);
  w.u64(cfg_.image_size);
  w.u64(cfg_.chunk_size);
  w.u64((cfg_.prefetch_whole_chunks ? 1u : 0u) |
        (cfg_.single_region_per_chunk ? 2u : 0u));
  w.u64(chunks_.size());
  for (const auto& c : chunks_) {
    w.u64(c.dirty ? 1 : 0);
    for (const RangeSet* set : {&c.mirrored, &c.dirty_ranges}) {
      const auto ranges = set->to_vector();
      w.u64(ranges.size());
      for (const auto& r : ranges) {
        w.u64(r.lo);
        w.u64(r.hi);
      }
    }
  }
  return std::move(w).str();
}

Result<LocalState> LocalState::deserialize(const std::string& data) {
  ByteReader in(data);
  std::uint64_t magic = 0, image_size = 0, chunk_size = 0, flags = 0, n = 0;
  if (!in.u64(&magic) || magic != kSidecarMagic) {
    return corruption("bad mirror-state magic");
  }
  if (!in.u64(&image_size) || !in.u64(&chunk_size) || !in.u64(&flags) ||
      !in.u64(&n)) {
    return corruption("truncated mirror-state header");
  }
  MirrorConfig cfg;
  cfg.image_size = image_size;
  cfg.chunk_size = chunk_size;
  cfg.prefetch_whole_chunks = (flags & 1) != 0;
  cfg.single_region_per_chunk = (flags & 2) != 0;
  if (image_size == 0 || chunk_size == 0) return corruption("bad sizes");
  if (n != block_count(image_size, chunk_size)) {
    return corruption("chunk count mismatch");
  }
  // Each chunk record holds at least its flag and two range counts.
  if (n > in.remaining() / 24) return corruption("truncated chunk states");
  // A count, then that many ranges, each non-empty and inside `chunk`.
  auto get_ranges = [&in](ByteRange chunk, RangeSet* out) -> Status {
    std::uint64_t count = 0;
    if (!in.u64(&count)) return corruption("truncated range count");
    for (std::uint64_t i = 0; i < count; ++i) {
      ByteRange r;
      if (!in.u64(&r.lo) || !in.u64(&r.hi)) return corruption("truncated range");
      if (r.empty() || !chunk.contains(r)) {
        return corruption("range " + r.to_string() + " outside chunk " +
                          chunk.to_string());
      }
      out->insert(r);
    }
    return Status::ok();
  };
  LocalState st(cfg);
  for (std::uint64_t ci = 0; ci < n; ++ci) {
    ChunkState& c = st.chunks_[ci];
    std::uint64_t dirty = 0;
    if (!in.u64(&dirty)) return corruption("truncated chunk state");
    c.dirty = dirty != 0;
    VMSTORM_RETURN_IF_ERROR(get_ranges(st.chunk_range(ci), &c.mirrored));
    VMSTORM_RETURN_IF_ERROR(get_ranges(st.chunk_range(ci), &c.dirty_ranges));
    for (const ByteRange& r : c.dirty_ranges.to_vector()) {
      if (!c.mirrored.contains(r)) {
        return corruption("dirty range " + r.to_string() + " not mirrored");
      }
    }
  }
  if (in.remaining() != 0) return corruption("trailing bytes in mirror state");
  return st;
}

}  // namespace vmstorm::mirror
