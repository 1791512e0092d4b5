#include "mirror/sim_disk.hpp"

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "sim/sync.hpp"

namespace vmstorm::mirror {

SimVirtualDisk::SimVirtualDisk(blob::SimCluster& cluster, net::NodeId node,
                               storage::Disk& local_disk, blob::BlobId blob,
                               blob::Version version, MirrorConfig cfg,
                               std::uint64_t instance_salt)
    : cluster_(&cluster), node_(node), local_disk_(&local_disk), state_(cfg),
      target_blob_(blob), target_version_(version), salt_(instance_salt),
      first_touched_(state_.chunk_count(), false) {}

std::uint64_t SimVirtualDisk::local_cache_key(std::uint64_t chunk) const {
  return mix64((salt_ << 20) ^ 0x0d15c00000ULL ^ chunk);
}

sim::Task<void> SimVirtualDisk::fetch_ranges(std::vector<ByteRange> ranges,
                                             bool register_inflight) {
  if (ranges.empty()) co_return;
  sim::Engine& engine = cluster_->network().engine();
  // One metadata resolution covering the whole span of this request.
  // Ranges are not necessarily offset-ordered (the prefetcher passes them
  // in access order), so take the true hull.
  ByteRange hull = ranges.front();
  for (const ByteRange& r : ranges) hull = hull.hull(r);
  auto locs = co_await cluster_->locate(node_, target_blob_, target_version_, hull);
  ++stats_.locate_calls;
  std::map<std::uint64_t, blob::ChunkLocation> by_chunk;
  for (const auto& l : locs) by_chunk[l.chunk_index] = l;

  const Bytes chunk_size = state_.config().chunk_size;
  std::vector<sim::Task<void>> fetches;
  std::vector<std::shared_ptr<sim::Event>> waits;
  std::vector<std::uint64_t> registered;
  for (const ByteRange& r : ranges) {
    for (const BlockPiece& p : split_blocks(r, chunk_size)) {
      const std::uint64_t ci = p.index;
      if (!first_touched_[ci]) {
        first_touched_[ci] = true;
        access_order_.push_back(ci);
      }
      // A prefetch of this chunk is already in flight: wait for it rather
      // than moving the same bytes twice.
      auto infl = inflight_.find(ci);
      if (infl != inflight_.end()) {
        ++stats_.inflight_waits;
        waits.push_back(infl->second);
        continue;
      }
      auto it = by_chunk.find(ci);
      if (it == by_chunk.end() || it->second.is_hole()) continue;  // zeros: local
      if (register_inflight) {
        inflight_[ci] = std::make_shared<sim::Event>(engine, "mirror.inflight");
        registered.push_back(ci);
      }
      fetches.push_back(cluster_->fetch(node_, it->second, p.range.size()));
      stats_.remote_bytes_fetched += p.range.size();
      ++stats_.remote_fetches;
    }
  }
  co_await sim::when_all(engine, std::move(fetches));
  // Mirror the fetched bytes into the local file (write-back).
  for (const ByteRange& r : ranges) {
    for (const BlockPiece& p : split_blocks(r, chunk_size)) {
      co_await local_disk_->write_async(p.range.size(), local_cache_key(p.index));
    }
    state_.apply_fetch(r);
  }
  for (std::uint64_t ci : registered) {
    auto it = inflight_.find(ci);
    if (it != inflight_.end()) {
      it->second->set();
      inflight_.erase(it);
    }
  }
  for (auto& ev : waits) co_await ev->wait();
}

sim::Task<void> SimVirtualDisk::read(Bytes offset, Bytes length) {
  if (length == 0) co_return;
  const ByteRange req{offset, offset + length};
  co_await fetch_ranges(state_.plan_read(req));
  // Local access is a memory copy through the mmapped mirror: no charge.
}

sim::Task<void> SimVirtualDisk::write(Bytes offset, Bytes length) {
  if (length == 0) co_return;
  const ByteRange req{offset, offset + length};
  std::vector<ByteRange> gaps = state_.plan_write(req);
  for (const ByteRange& g : gaps) stats_.gapfill_bytes += g.size();
  co_await fetch_ranges(std::move(gaps));
  // The write itself lands in the mmap; the kernel flushes asynchronously.
  for (const BlockPiece& p :
       split_blocks(req.intersect({0, size()}), state_.config().chunk_size)) {
    co_await local_disk_->write_async(p.range.size(), local_cache_key(p.index));
  }
  state_.apply_write(req);
}

sim::Task<void> SimVirtualDisk::prefetch(AccessProfile profile,
                                         std::size_t window) {
  if (window == 0) window = 1;
  std::size_t pos = 0;
  while (pos < profile.size()) {
    std::vector<ByteRange> batch;
    while (pos < profile.size() && batch.size() < window) {
      const std::uint64_t ci = profile[pos++];
      if (ci >= state_.chunk_count()) continue;
      const ByteRange cr = state_.chunk_range(ci);
      if (state_.is_mirrored(cr)) {  // demand got there first
        ++stats_.prefetch_skipped;
        continue;
      }
      // Only fetch what is still missing (partially-written chunks keep
      // their local content).
      for (const ByteRange& gap : state_.plan_read(cr)) batch.push_back(gap);
      ++stats_.prefetched_chunks;
    }
    if (batch.empty()) continue;
    co_await fetch_ranges(std::move(batch), /*register_inflight=*/true);
  }
}

sim::Task<blob::BlobId> SimVirtualDisk::clone() {
  const blob::BlobId id =
      co_await cluster_->clone(node_, target_blob_, target_version_);
  target_blob_ = id;
  target_version_ = 0;
  co_return id;
}

sim::Task<blob::Version> SimVirtualDisk::commit() {
  auto dirty = state_.dirty_chunks();
  if (dirty.empty()) co_return target_version_;
  std::vector<ByteRange> gaps = state_.plan_commit();
  for (const ByteRange& g : gaps) stats_.gapfill_bytes += g.size();
  co_await fetch_ranges(std::move(gaps));
  std::vector<blob::ChunkWrite> writes;
  writes.reserve(dirty.size());
  for (std::uint64_t ci : dirty) {
    const ByteRange cr = state_.chunk_range(ci);
    // Content model: chunks below the shared fraction carry content common
    // to every instance (identical contextualization); the rest is
    // instance-unique. Same-chunk recommits get fresh content per version.
    const bool shared =
        static_cast<double>(mix64(ci) % 1000) < commit_shared_fraction_ * 1000.0;
    const std::uint64_t seed =
        shared ? 0xc0117705ull
               : mix64(salt_ ^ (static_cast<std::uint64_t>(target_version_) << 32) ^ ci);
    writes.push_back(
        blob::ChunkWrite{ci, blob::ChunkPayload::pattern(seed, cr.size(), cr.lo)});
  }
  const blob::Version v =
      co_await cluster_->commit(node_, target_blob_, target_version_, std::move(writes));
  state_.clear_dirty();
  target_version_ = v;
  co_return v;
}

}  // namespace vmstorm::mirror
