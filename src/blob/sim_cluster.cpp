#include "blob/sim_cluster.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/recorder.hpp"
#include "sim/causal.hpp"

namespace vmstorm::blob {

namespace {
/// Metadata RPC message size (segment-tree node batches are small).
constexpr Bytes kMetadataRpcBytes = 256;
/// Data-request header size.
constexpr Bytes kDataRequestBytes = 256;

[[noreturn]] void raise(const Status& st) {
  throw std::runtime_error("blob::SimCluster: " + st.to_string());
}
}  // namespace

SimCluster::SimCluster(sim::Engine& engine, net::Network& network,
                       BlobStore& store,
                       std::vector<net::NodeId> provider_nodes,
                       std::vector<storage::Disk*> provider_disks,
                       net::NodeId manager_node)
    : engine_(&engine), network_(&network), store_(&store),
      provider_nodes_(std::move(provider_nodes)),
      provider_disks_(std::move(provider_disks)),
      manager_node_(manager_node) {
  assert(provider_nodes_.size() == provider_disks_.size());
  assert(provider_nodes_.size() == store_->config().providers);
  if (obs::Recorder* rec = engine.recorder()) {
    obs_locates_ = &rec->metrics.counter("blob.locates");
    obs_fetches_ = &rec->metrics.counter("blob.fetches");
    obs_fetched_bytes_ = &rec->metrics.counter("blob.fetched_bytes");
    obs_commits_ = &rec->metrics.counter("blob.commits");
    obs_chunk_pushes_ = &rec->metrics.counter("blob.chunk_pushes");
    obs_clones_ = &rec->metrics.counter("blob.clones");
  }
}

net::NodeId SimCluster::metadata_node_for(std::uint64_t salt) const {
  return provider_nodes_[mix64(salt) % provider_nodes_.size()];
}

sim::Task<std::vector<ChunkLocation>> SimCluster::locate(
    net::NodeId client, BlobId blob, Version version, ByteRange range) {
  auto r = store_->locate(blob, version, range);
  if (!r.is_ok()) raise(r.status());
  if (obs_locates_) obs_locates_->add();
  co_await network_->small_rpc(client, metadata_node_for(rpc_counter_++),
                               kMetadataRpcBytes, kMetadataRpcBytes);
  co_return std::move(r).value();
}

sim::Task<void> SimCluster::fetch(net::NodeId client, ChunkLocation loc,
                                  Bytes length) {
  if (loc.is_hole() || length == 0) co_return;
  if (obs_fetches_) obs_fetches_->add();
  if (obs_fetched_bytes_) obs_fetched_bytes_->add(length);
  // Fetch is a repository-hinted span: provider disk service underneath
  // buckets as repo_disk, NIC time as net_transfer.
  sim::SpanScope span(*engine_);
  storage::Disk& disk = disk_of(loc.provider);
  // Provider-side work: read the chunk bytes (page-cache key = chunk key).
  co_await network_->round_trip(client, node_of(loc.provider),
                                kDataRequestBytes, length,
                                disk.read(loc.key, length));
  if (span) {
    span.finish(client, "blob", "fetch",
                {obs::TraceArg::str("bucket", "repo"),
                 obs::TraceArg::uint("provider", loc.provider),
                 obs::TraceArg::uint("bytes", length)});
  }
}

sim::Task<void> SimCluster::push_chunk(net::NodeId client, ProviderId provider,
                                       ChunkKey key, Bytes length) {
  sim::SpanScope span(*engine_);
  // Send the chunk, then wait only for write-back admission (BlobSeer's
  // asynchronous write ACK); the platter flush proceeds in the background.
  co_await network_->round_trip(client, node_of(provider),
                                kDataRequestBytes + length,
                                /*response_bytes=*/64,
                                disk_of(provider).write_async(length, key));
  if (span) {
    span.finish(client, "blob", "push",
                {obs::TraceArg::str("bucket", "repo"),
                 obs::TraceArg::uint("provider", provider),
                 obs::TraceArg::uint("bytes", length)});
  }
}

sim::Task<Version> SimCluster::commit(net::NodeId client, BlobId blob,
                                      Version base,
                                      std::vector<ChunkWrite> writes) {
  if (obs_commits_) obs_commits_->add();
  sim::SpanScope span(*engine_);
  // 1. Ticket + provider allocation from the version manager.
  co_await network_->small_rpc(client, manager_node_, kMetadataRpcBytes,
                               kMetadataRpcBytes);
  // 2. Commit the real store (placement decided here) so we know where
  //    each chunk landed; then charge the data pushes those placements
  //    imply, all in parallel.
  std::vector<Bytes> sizes;
  std::vector<std::uint64_t> indices;
  sizes.reserve(writes.size());
  indices.reserve(writes.size());
  for (const ChunkWrite& w : writes) {
    sizes.push_back(w.payload.size());
    indices.push_back(w.chunk_index);
  }
  auto committed = store_->commit_chunks_detailed(blob, base, std::move(writes));
  if (!committed.is_ok()) raise(committed.status());
  const Version version = committed->version;

  std::vector<sim::Task<void>> pushes;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    // Deduplicated chunks are already stored somewhere in the pool: no
    // data push, only the metadata update below.
    if (committed->deduplicated[i]) continue;
    const ChunkKey key = committed->keys[i];
    for (ProviderId p : store_->replicas_of(key)) {
      if (obs_chunk_pushes_) obs_chunk_pushes_->add();
      pushes.push_back(push_chunk(client, p, key, sizes[i]));
    }
  }
  co_await sim::when_all(*engine_, std::move(pushes));

  // 3. Metadata write (segment-tree path copies) to a metadata provider,
  //    then publication at the version manager.
  co_await network_->small_rpc(client, metadata_node_for(rpc_counter_++),
                               kMetadataRpcBytes, kMetadataRpcBytes);
  co_await network_->small_rpc(client, manager_node_, kMetadataRpcBytes,
                               kMetadataRpcBytes);
  if (span) {
    span.finish(client, "blob", "commit",
                {obs::TraceArg::uint("blob", blob),
                 obs::TraceArg::uint("version", version),
                 obs::TraceArg::uint("chunks", indices.size())});
  }
  co_return version;
}

sim::Task<BlobId> SimCluster::clone(net::NodeId client, BlobId blob,
                                    Version version) {
  auto r = store_->clone(blob, version);
  if (!r.is_ok()) raise(r.status());
  if (obs_clones_) obs_clones_->add();
  sim::SpanScope span(*engine_);
  co_await network_->small_rpc(client, manager_node_, kMetadataRpcBytes,
                               kMetadataRpcBytes);
  if (span) {
    span.finish(client, "blob", "clone", {obs::TraceArg::uint("src", blob)});
  }
  co_return r.value();
}

sim::Task<void> SimCluster::flush_all_disks() {
  std::vector<sim::Task<void>> flushes;
  flushes.reserve(provider_disks_.size());
  for (storage::Disk* d : provider_disks_) flushes.push_back(d->flush());
  co_await sim::when_all(*engine_, std::move(flushes));
}

}  // namespace vmstorm::blob
