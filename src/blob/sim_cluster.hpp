// SimCluster: the blob store deployed on the simulated cluster.
//
// Wraps a BlobStore (which performs the real metadata and chunk
// bookkeeping) and charges simulated time and traffic for every client
// operation: RPC round trips through the Network, platter/cache time on
// each provider's Disk, and asynchronous (write-back) chunk writes exactly
// as BlobSeer ACKs them (§5.3: "an asynchronous write strategy that
// returns to the client before data was committed to disk").
//
// Provider i of the store lives on network node `provider_nodes[i]` with
// local disk `provider_disks[i]`. Metadata is hash-distributed across the
// providers (BlobSeer's distributed segment trees); the version manager is
// a single lightweight service on `manager_node`.
#pragma once

#include <cstdint>
#include <vector>

#include "blob/store.hpp"
#include "common/interval.hpp"
#include "net/network.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/disk.hpp"

namespace vmstorm::obs {
class Counter;
}  // namespace vmstorm::obs

namespace vmstorm::blob {

class SimCluster {
 public:
  SimCluster(sim::Engine& engine, net::Network& network, BlobStore& store,
             std::vector<net::NodeId> provider_nodes,
             std::vector<storage::Disk*> provider_disks,
             net::NodeId manager_node);

  BlobStore& store() { return *store_; }
  net::Network& network() { return *network_; }
  net::NodeId node_of(ProviderId p) const { return provider_nodes_.at(p); }
  storage::Disk& disk_of(ProviderId p) { return *provider_disks_.at(p); }
  std::size_t provider_count() const { return provider_nodes_.size(); }

  /// Resolves chunk locations for a byte range, charging one metadata RPC
  /// to a hash-chosen metadata provider (clients cache tree interiors, so
  /// steady-state metadata cost is ~1 small RPC per request).
  sim::Task<std::vector<ChunkLocation>> locate(net::NodeId client, BlobId blob,
                                               Version version, ByteRange range);

  /// Fetches `length` bytes of a stored chunk from its provider: request ->
  /// provider disk read (page-cache aware) -> data response. Hole chunks
  /// cost nothing (zero-fill is local).
  sim::Task<void> fetch(net::NodeId client, ChunkLocation loc, Bytes length);

  /// COMMIT: allocation/ticket RPC to the version manager, parallel chunk
  /// pushes (transfer + provider write-back admission), then metadata
  /// update RPCs and publication. Returns the new version.
  sim::Task<Version> commit(net::NodeId client, BlobId blob, Version base,
                            std::vector<ChunkWrite> writes);

  /// CLONE: one metadata RPC; O(1) in the store (new shared root).
  sim::Task<BlobId> clone(net::NodeId client, BlobId blob, Version version);

  /// Waits until every provider disk has flushed its write-back buffer.
  sim::Task<void> flush_all_disks();

 private:
  net::NodeId metadata_node_for(std::uint64_t salt) const;
  sim::Task<void> push_chunk(net::NodeId client, ProviderId provider,
                             ChunkKey key, Bytes length);

  sim::Engine* engine_;
  net::Network* network_;
  BlobStore* store_;
  std::vector<net::NodeId> provider_nodes_;
  std::vector<storage::Disk*> provider_disks_;
  net::NodeId manager_node_;
  std::uint64_t rpc_counter_ = 0;
  // Registry handles cached at construction; null without a recorder.
  obs::Counter* obs_locates_ = nullptr;
  obs::Counter* obs_fetches_ = nullptr;
  obs::Counter* obs_fetched_bytes_ = nullptr;
  obs::Counter* obs_commits_ = nullptr;
  obs::Counter* obs_chunk_pushes_ = nullptr;
  obs::Counter* obs_clones_ = nullptr;
};

}  // namespace vmstorm::blob
