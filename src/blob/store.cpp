#include "blob/store.hpp"

#include <algorithm>
#include <cstring>

namespace vmstorm::blob {

BlobStore::BlobStore(StoreConfig cfg) : cfg_(cfg), providers_(
    cfg.providers == 0 ? 1 : cfg.providers, cfg.policy, cfg.seed) {
  const std::size_t n = cfg.providers == 0 ? 1 : cfg.providers;
  chunk_stores_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    chunk_stores_.push_back(std::make_unique<ChunkStore>());
  }
}

Result<BlobId> BlobStore::create(Bytes size, Bytes chunk_size) {
  if (size == 0 || chunk_size == 0) {
    return invalid_argument("blob and chunk size must be nonzero");
  }
  std::unique_lock lock(mutex_);
  BlobRecord rec;
  rec.size = size;
  rec.chunk_size = chunk_size;
  rec.roots.push_back(arena_.build_empty(block_count(size, chunk_size)));
  const BlobId id = next_blob_++;
  blobs_.emplace(id, std::move(rec));
  return id;
}

Result<BlobId> BlobStore::clone(BlobId src, Version version) {
  std::unique_lock lock(mutex_);
  const BlobRecord* rec = find_locked(src);
  if (rec == nullptr) return not_found("blob " + std::to_string(src));
  if (version >= rec->roots.size()) {
    return out_of_range("version " + std::to_string(version));
  }
  BlobRecord copy;
  copy.size = rec->size;
  copy.chunk_size = rec->chunk_size;
  copy.roots.push_back(arena_.clone(rec->roots[version]));
  const BlobId id = next_blob_++;
  blobs_.emplace(id, std::move(copy));
  return id;
}

Result<BlobInfo> BlobStore::info(BlobId blob) const {
  std::shared_lock lock(mutex_);
  const BlobRecord* rec = find_locked(blob);
  if (rec == nullptr) return not_found("blob " + std::to_string(blob));
  BlobInfo out;
  out.size = rec->size;
  out.chunk_size = rec->chunk_size;
  out.latest = static_cast<Version>(rec->roots.size() - 1);
  out.chunk_count = block_count(rec->size, rec->chunk_size);
  return out;
}

std::size_t BlobStore::blob_count() const {
  std::shared_lock lock(mutex_);
  return blobs_.size();
}

const BlobStore::BlobRecord* BlobStore::find_locked(BlobId blob) const {
  auto it = blobs_.find(blob);
  return it == blobs_.end() ? nullptr : &it->second;
}

BlobStore::BlobRecord* BlobStore::find_locked(BlobId blob) {
  auto it = blobs_.find(blob);
  return it == blobs_.end() ? nullptr : &it->second;
}

Result<std::vector<ChunkLocation>> BlobStore::locate(BlobId blob,
                                                     Version version,
                                                     ByteRange range) const {
  std::shared_lock lock(mutex_);
  const BlobRecord* rec = find_locked(blob);
  if (rec == nullptr) return not_found("blob " + std::to_string(blob));
  if (version >= rec->roots.size()) {
    return out_of_range("version " + std::to_string(version));
  }
  if (range.hi > rec->size) return out_of_range("range beyond blob size");
  std::vector<ChunkLocation> out;
  if (range.empty()) return out;
  arena_.locate(rec->roots[version], range.lo / rec->chunk_size,
                block_count(range.hi, rec->chunk_size), &out);
  return out;
}

Status BlobStore::read_chunk_locked(const ChunkLocation& loc, Bytes offset,
                                    std::span<std::byte> out) const {
  if (loc.is_hole()) {
    std::memset(out.data(), 0, out.size());
    return Status::ok();
  }
  // Try the primary, then surviving replicas.
  Status st = chunk_stores_.at(loc.provider)->read(loc.key, offset, out);
  if (st.is_ok()) return st;
  if (auto it = replica_map_.find(loc.key); it != replica_map_.end()) {
    for (ProviderId p : it->second) {
      if (p == loc.provider) continue;
      st = chunk_stores_.at(p)->read(loc.key, offset, out);
      if (st.is_ok()) return st;
    }
  }
  return unavailable("no replica of chunk key " + std::to_string(loc.key));
}

std::vector<ProviderId> BlobStore::replicas_of(ChunkKey key) const {
  std::shared_lock lock(mutex_);
  auto it = replica_map_.find(key);
  return it == replica_map_.end() ? std::vector<ProviderId>{} : it->second;
}

Status BlobStore::drop_replica(ChunkKey key, ProviderId provider) {
  std::unique_lock lock(mutex_);
  auto it = replica_map_.find(key);
  if (it == replica_map_.end()) return not_found("chunk key");
  auto& reps = it->second;
  auto pos = std::find(reps.begin(), reps.end(), provider);
  if (pos == reps.end()) return not_found("replica on provider");
  reps.erase(pos);
  return chunk_stores_.at(provider)->erase(key);
}

Status BlobStore::read(BlobId blob, Version version, Bytes offset,
                       std::span<std::byte> out) const {
  std::shared_lock lock(mutex_);
  const BlobRecord* rec = find_locked(blob);
  if (rec == nullptr) return not_found("blob " + std::to_string(blob));
  if (version >= rec->roots.size()) return out_of_range("version");
  if (offset > rec->size || out.size() > rec->size - offset) {
    return out_of_range("read past end");
  }
  if (out.empty()) return Status::ok();
  const BlockSplit pieces =
      split_blocks({offset, offset + out.size()}, rec->chunk_size);
  std::vector<ChunkLocation> locs;
  arena_.locate(rec->roots[version], pieces->index,
                block_count(offset + out.size(), rec->chunk_size), &locs);
  // locate yields one location per chunk, in order: the pieces' chunks.
  auto loc = locs.begin();
  for (const BlockPiece& p : pieces) {
    VMSTORM_RETURN_IF_ERROR(read_chunk_locked(
        *loc++, p.range.lo - p.base,
        out.subspan(p.range.lo - offset, p.range.size())));
  }
  return Status::ok();
}

Result<Version> BlobStore::commit_locked(
    BlobId blob, Version base, std::map<std::uint64_t, ChunkLocation> updates) {
  BlobRecord* rec = find_locked(blob);
  if (rec == nullptr) return not_found("blob " + std::to_string(blob));
  const Version latest = static_cast<Version>(rec->roots.size() - 1);
  if (base != latest) {
    return failed_precondition("commit base " + std::to_string(base) +
                               " is not latest " + std::to_string(latest));
  }
  rec->roots.push_back(arena_.commit(rec->roots[base], updates));
  return static_cast<Version>(rec->roots.size() - 1);
}

Result<Version> BlobStore::commit_chunks(BlobId blob, Version base,
                                         std::vector<ChunkWrite> writes) {
  VMSTORM_ASSIGN_OR_RETURN(
      outcome, commit_chunks_detailed(blob, base, std::move(writes)));
  return outcome.version;
}

Result<CommitOutcome> BlobStore::commit_chunks_detailed(
    BlobId blob, Version base, std::vector<ChunkWrite> writes) {
  CommitOutcome out;
  if (writes.empty()) {
    out.version = base;
    return out;
  }
  // Stage chunk data first (providers are independent), then publish
  // metadata atomically under the writer lock.
  std::map<std::uint64_t, ChunkLocation> updates;
  std::vector<std::pair<ChunkKey, std::vector<ProviderId>>> placements;
  // Placements staged in this batch, for intra-batch dedup hits (they are
  // only published to replica_map_ at the end).
  std::map<ChunkKey, ProviderId> pending_primary;
  {
    std::shared_lock lock(mutex_);
    const BlobRecord* rec = find_locked(blob);
    if (rec == nullptr) return not_found("blob " + std::to_string(blob));
    const std::uint64_t chunks = block_count(rec->size, rec->chunk_size);
    for (const ChunkWrite& w : writes) {
      if (w.chunk_index >= chunks) return out_of_range("chunk index");
    }
  }
  for (ChunkWrite& w : writes) {
    const std::uint64_t h = cfg_.dedup ? w.payload.content_hash() : 0;
    if (cfg_.dedup) {
      std::unique_lock lock(mutex_);
      auto it = dedup_map_.find(h);
      if (it != dedup_map_.end() && it->second.second == w.payload.size()) {
        // Same content already stored: share the existing chunk.
        const ChunkKey key = it->second.first;
        auto pending = pending_primary.find(key);
        const ProviderId primary = pending != pending_primary.end()
                                       ? pending->second
                                       : replica_map_.at(key).front();
        updates[w.chunk_index] = ChunkLocation{w.chunk_index, primary, key};
        out.keys.push_back(key);
        out.deduplicated.push_back(true);
        ++dedup_hits_;
        dedup_saved_ += w.payload.size();
        continue;
      }
    }
    const ChunkKey key = next_key_.fetch_add(1);
    std::vector<ProviderId> reps =
        providers_.allocate_replicas(w.payload.size(), cfg_.replication);
    if (cfg_.dedup) {
      std::unique_lock lock(mutex_);
      dedup_map_[h] = {key, w.payload.size()};
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      // Last replica moves the payload; earlier ones copy.
      if (i + 1 == reps.size()) {
        chunk_stores_.at(reps[i])->put(key, std::move(w.payload));
      } else {
        chunk_stores_.at(reps[i])->put(key, w.payload);
      }
    }
    updates[w.chunk_index] = ChunkLocation{w.chunk_index, reps[0], key};
    out.keys.push_back(key);
    out.deduplicated.push_back(false);
    pending_primary[key] = reps[0];
    placements.emplace_back(key, std::move(reps));
  }
  std::unique_lock lock(mutex_);
  for (auto& [key, reps] : placements) replica_map_[key] = std::move(reps);
  VMSTORM_ASSIGN_OR_RETURN(v, commit_locked(blob, base, std::move(updates)));
  out.version = v;
  return out;
}

std::uint64_t BlobStore::dedup_hits() const {
  std::shared_lock lock(mutex_);
  return dedup_hits_;
}

Bytes BlobStore::dedup_saved_bytes() const {
  std::shared_lock lock(mutex_);
  return dedup_saved_;
}

Result<Version> BlobStore::write(BlobId blob, Version base, Bytes offset,
                                 std::span<const std::byte> data) {
  return write_chunks(
      blob, base, offset, data.size(),
      [&](Bytes chunk_base, Bytes chunk_len) {
        const auto src = data.subspan(chunk_base - offset, chunk_len);
        return ChunkPayload::own(std::vector<std::byte>(src.begin(), src.end()));
      },
      [&](Bytes lo, std::span<std::byte> out) {
        std::memcpy(out.data(), data.data() + (lo - offset), out.size());
      });
}

Result<Version> BlobStore::write_pattern(BlobId blob, Version base,
                                         Bytes offset, Bytes length,
                                         std::uint64_t seed) {
  return write_chunks(
      blob, base, offset, length,
      [seed](Bytes chunk_base, Bytes chunk_len) {
        return ChunkPayload::pattern(seed, chunk_len, chunk_base);
      },
      [seed](Bytes lo, std::span<std::byte> out) { fill_pattern(seed, lo, out); });
}

Result<Version> BlobStore::write_chunks(
    BlobId blob, Version base, Bytes offset, Bytes length,
    const std::function<ChunkPayload(Bytes, Bytes)>& whole,
    const std::function<void(Bytes, std::span<std::byte>)>& overlay) {
  if (length == 0) return base;
  Bytes chunk_size = 0, size = 0;
  NodeRef base_root = kNoNode;
  {
    std::shared_lock lock(mutex_);
    const BlobRecord* rec = find_locked(blob);
    if (rec == nullptr) return not_found("blob " + std::to_string(blob));
    if (base >= rec->roots.size()) return out_of_range("version");
    if (offset > rec->size || length > rec->size - offset) {
      return out_of_range("write past end");
    }
    chunk_size = rec->chunk_size;
    size = rec->size;
    base_root = rec->roots[base];
  }
  std::vector<ChunkWrite> writes;
  for (const BlockPiece& p : split_blocks({offset, offset + length}, chunk_size)) {
    const Bytes chunk_len = std::min(chunk_size, size - p.base);
    ChunkWrite w;
    w.chunk_index = p.index;
    if (p.range.size() == chunk_len) {
      w.payload = whole(p.base, chunk_len);
    } else {
      // Boundary chunk: materialize the base content and overlay the write.
      std::vector<std::byte> buf(chunk_len);
      {
        std::shared_lock lock(mutex_);
        const ChunkLocation loc = arena_.locate_one(base_root, p.index);
        VMSTORM_RETURN_IF_ERROR(read_chunk_locked(loc, 0, buf));
      }
      overlay(p.range.lo,
              std::span(buf).subspan(p.range.lo - p.base, p.range.size()));
      w.payload = ChunkPayload::own(std::move(buf));
    }
    writes.push_back(std::move(w));
  }
  return commit_chunks(blob, base, std::move(writes));
}

Bytes BlobStore::stored_bytes() const {
  Bytes n = 0;
  for (const auto& cs : chunk_stores_) n += cs->stored_bytes();
  return n;
}

std::size_t BlobStore::metadata_nodes() const {
  std::shared_lock lock(mutex_);
  return arena_.node_count();
}

std::uint64_t BlobStore::metadata_node_visits() const {
  std::shared_lock lock(mutex_);
  return arena_.nodes_visited();
}

}  // namespace vmstorm::blob
