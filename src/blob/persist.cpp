#include "blob/persist.hpp"

#include "common/byte_codec.hpp"
#include "common/file_io.hpp"

namespace vmstorm::blob {

namespace {

constexpr std::string_view kMagic = "VMSTREPO";
constexpr std::uint64_t kFormatVersion = 1;

void write_payload(ByteWriter& w, const ChunkPayload& p) {
  w.u64(static_cast<std::uint64_t>(p.kind()));
  w.u64(p.size());
  switch (p.kind()) {
    case ChunkPayload::Kind::kZeros:
      break;
    case ChunkPayload::Kind::kPattern:
      w.u64(p.seed());
      w.u64(p.bias());
      break;
    case ChunkPayload::Kind::kBytes:
      w.bytes(p.raw_bytes());
      break;
  }
}

Result<ChunkPayload> read_payload(ByteReader& r) {
  std::uint64_t kind = 0, size = 0;
  if (!r.u64(&kind) || !r.u64(&size)) return corruption("truncated payload");
  switch (static_cast<ChunkPayload::Kind>(kind)) {
    case ChunkPayload::Kind::kZeros:
      return ChunkPayload::zeros(size);
    case ChunkPayload::Kind::kPattern: {
      std::uint64_t seed = 0, bias = 0;
      if (!r.u64(&seed) || !r.u64(&bias)) return corruption("truncated pattern");
      return ChunkPayload::pattern(seed, size, bias);
    }
    case ChunkPayload::Kind::kBytes: {
      std::string_view raw;
      if (!r.bytes(size, &raw)) return corruption("truncated bytes");
      const auto b = std::as_bytes(std::span(raw));
      return ChunkPayload::own({b.begin(), b.end()});
    }
  }
  return corruption("unknown payload kind");
}

}  // namespace

Result<std::string> save_store(const BlobStore& store) {
  std::shared_lock lock(store.mutex_);
  ByteWriter w;
  w.bytes(std::as_bytes(std::span(kMagic)));
  w.u64(kFormatVersion);

  // Config.
  w.u64(store.cfg_.providers);
  w.u64(static_cast<std::uint64_t>(store.cfg_.policy));
  w.u64(store.cfg_.replication);
  w.u64(store.cfg_.dedup ? 1 : 0);
  w.u64(store.cfg_.seed);

  // Segment-tree arena.
  const auto& nodes = store.arena_.nodes();
  w.u64(nodes.size());
  for (const auto& n : nodes) {
    w.u64(n.lo);
    w.u64(n.hi);
    w.u64(n.left);
    w.u64(n.right);
    w.u64(n.chunk.chunk_index);
    w.u64(n.chunk.provider);
    w.u64(n.chunk.key);
  }

  // Blob directory.
  w.u64(store.blobs_.size());
  for (const auto& [id, rec] : store.blobs_) {
    w.u64(id);
    w.u64(rec.size);
    w.u64(rec.chunk_size);
    w.u64(rec.roots.size());
    for (NodeRef r : rec.roots) w.u64(r);
  }
  w.u64(store.next_blob_);
  w.u64(store.next_key_.load());

  // Replica map.
  w.u64(store.replica_map_.size());
  for (const auto& [key, reps] : store.replica_map_) {
    w.u64(key);
    w.u64(reps.size());
    for (ProviderId p : reps) w.u64(p);
  }

  // Dedup state.
  w.u64(store.dedup_map_.size());
  for (const auto& [hash, entry] : store.dedup_map_) {
    w.u64(hash);
    w.u64(entry.first);
    w.u64(entry.second);
  }
  w.u64(store.dedup_hits_);
  w.u64(store.dedup_saved_);

  // Provider-manager placement state.
  const auto pm = store.providers_.export_state();
  w.u64(pm.load.size());
  for (Bytes b : pm.load) w.u64(b);
  for (std::uint64_t c : pm.chunk_counts) w.u64(c);
  w.u64(pm.next_rr);

  // Chunk data, per provider.
  w.u64(store.chunk_stores_.size());
  for (const auto& cs : store.chunk_stores_) {
    const auto keys = cs->keys();
    w.u64(keys.size());
    for (ChunkKey k : keys) {
      w.u64(k);
      auto payload = cs->get(k);
      if (!payload.is_ok()) return payload.status();
      write_payload(w, *payload);
    }
  }
  return std::move(w).str();
}

Status save_store_file(const BlobStore& store, const std::string& path) {
  VMSTORM_ASSIGN_OR_RETURN(bytes, save_store(store));
  return write_file(path, bytes);
}

Result<std::unique_ptr<BlobStore>> load_store(std::string_view bytes) {
  ByteReader r(bytes);
  // A count of records of at least `words` u64s each fails here unless
  // the bytes left can hold them, so nothing is sized from a wild count.
  const auto count = [&r](std::uint64_t* n, std::uint64_t words) {
    return r.u64(n) && *n <= r.remaining() / (8 * words);
  };
  std::string_view magic;
  if (!r.bytes(kMagic.size(), &magic) || magic != kMagic) {
    return corruption("bad repository magic");
  }
  std::uint64_t format = 0;
  if (!r.u64(&format) || format != kFormatVersion) {
    return corruption("unsupported repository format version");
  }

  StoreConfig cfg;
  std::uint64_t providers = 0, policy = 0, replication = 0, dedup = 0, seed = 0;
  if (!r.u64(&providers) || !r.u64(&policy) || !r.u64(&replication) ||
      !r.u64(&dedup) || !r.u64(&seed)) {
    return corruption("truncated config");
  }
  // Each provider's load, chunk count and chunk-store size come later.
  if (providers > r.remaining() / 24) return corruption("truncated providers");
  cfg.providers = providers;
  cfg.policy = static_cast<AllocationPolicy>(policy);
  cfg.replication = replication;
  cfg.dedup = dedup != 0;
  cfg.seed = seed;
  auto store = std::make_unique<BlobStore>(cfg);

  // Arena.
  std::uint64_t node_count = 0;
  if (!count(&node_count, 7)) return corruption("truncated arena");
  std::vector<SegmentTreeArena::Node> nodes(node_count);
  for (auto& n : nodes) {
    std::uint64_t prov = 0;
    if (!r.u64(&n.lo) || !r.u64(&n.hi) || !r.u64(&n.left) || !r.u64(&n.right) ||
        !r.u64(&n.chunk.chunk_index) || !r.u64(&prov) || !r.u64(&n.chunk.key)) {
      return corruption("truncated arena node");
    }
    n.chunk.provider = static_cast<ProviderId>(prov);
  }
  store->arena_.load_nodes(std::move(nodes));

  // Blobs.
  std::uint64_t blob_count = 0;
  if (!count(&blob_count, 4)) return corruption("truncated blob directory");
  for (std::uint64_t i = 0; i < blob_count; ++i) {
    std::uint64_t id = 0, size = 0, chunk_size = 0, roots = 0;
    if (!r.u64(&id) || !r.u64(&size) || !r.u64(&chunk_size) ||
        !count(&roots, 1)) {
      return corruption("truncated blob record");
    }
    BlobStore::BlobRecord rec;
    rec.size = size;
    rec.chunk_size = chunk_size;
    rec.roots.resize(roots);
    for (auto& root : rec.roots) {
      if (!r.u64(&root)) return corruption("truncated roots");
      if (root >= store->arena_.node_count()) return corruption("root out of range");
    }
    store->blobs_.emplace(static_cast<BlobId>(id), std::move(rec));
  }
  std::uint64_t next_blob = 0, next_key = 0;
  if (!r.u64(&next_blob) || !r.u64(&next_key)) return corruption("truncated ids");
  store->next_blob_ = static_cast<BlobId>(next_blob);
  store->next_key_.store(next_key);

  // Replica map.
  std::uint64_t replica_count = 0;
  if (!count(&replica_count, 2)) return corruption("truncated replica map");
  for (std::uint64_t i = 0; i < replica_count; ++i) {
    std::uint64_t key = 0, reps = 0;
    if (!r.u64(&key) || !count(&reps, 1)) return corruption("truncated replicas");
    std::vector<ProviderId> v(reps);
    for (auto& p : v) {
      std::uint64_t pv = 0;
      if (!r.u64(&pv)) return corruption("truncated replica id");
      if (pv >= cfg.providers) return corruption("replica provider out of range");
      p = static_cast<ProviderId>(pv);
    }
    store->replica_map_[key] = std::move(v);
  }

  // Dedup state.
  std::uint64_t dedup_count = 0;
  if (!count(&dedup_count, 3)) return corruption("truncated dedup map");
  for (std::uint64_t i = 0; i < dedup_count; ++i) {
    std::uint64_t hash = 0, key = 0, size = 0;
    if (!r.u64(&hash) || !r.u64(&key) || !r.u64(&size)) {
      return corruption("truncated dedup entry");
    }
    store->dedup_map_[hash] = {key, size};
  }
  if (!r.u64(&store->dedup_hits_) || !r.u64(&store->dedup_saved_)) {
    return corruption("truncated dedup counters");
  }

  // Provider-manager state.
  std::uint64_t pm_count = 0;
  if (!r.u64(&pm_count)) return corruption("truncated provider state");
  if (pm_count != cfg.providers) return corruption("provider count mismatch");
  ProviderManagerState pm;
  pm.load.resize(pm_count);
  pm.chunk_counts.resize(pm_count);
  for (auto& b : pm.load) {
    if (!r.u64(&b)) return corruption("truncated provider load");
  }
  for (auto& c : pm.chunk_counts) {
    if (!r.u64(&c)) return corruption("truncated provider counts");
  }
  std::uint64_t next_rr = 0;
  if (!r.u64(&next_rr)) return corruption("truncated next_rr");
  pm.next_rr = next_rr;
  VMSTORM_RETURN_IF_ERROR(store->providers_.import_state(pm));

  // Chunk data.
  std::uint64_t provider_stores = 0;
  if (!r.u64(&provider_stores) || provider_stores != cfg.providers) {
    return corruption("chunk store count mismatch");
  }
  for (std::uint64_t p = 0; p < provider_stores; ++p) {
    std::uint64_t chunk_count = 0;
    // A chunk record is at least its key and its payload's kind and size.
    if (!count(&chunk_count, 3)) return corruption("truncated chunk store");
    for (std::uint64_t i = 0; i < chunk_count; ++i) {
      std::uint64_t key = 0;
      if (!r.u64(&key)) return corruption("truncated chunk key");
      VMSTORM_ASSIGN_OR_RETURN(payload, read_payload(r));
      store->chunk_stores_[p]->put(key, std::move(payload));
    }
  }
  return store;
}

Result<std::unique_ptr<BlobStore>> load_store_file(const std::string& path) {
  VMSTORM_ASSIGN_OR_RETURN(bytes, read_file(path));
  return load_store(bytes);
}

}  // namespace vmstorm::blob
