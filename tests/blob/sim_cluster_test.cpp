#include "blob/sim_cluster.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace vmstorm::blob {
namespace {

using sim::Engine;
using sim::Task;

struct Rig {
  Engine engine;
  net::Network network;
  BlobStore store;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<SimCluster> cluster;
  net::NodeId client;

  explicit Rig(std::size_t providers, std::size_t replication = 1)
      : network(engine, providers + 2, simple_net()),
        store(StoreConfig{.providers = providers, .replication = replication}) {
    std::vector<net::NodeId> nodes;
    std::vector<storage::Disk*> dptr;
    for (std::size_t i = 0; i < providers; ++i) {
      nodes.push_back(static_cast<net::NodeId>(i));
      disks.push_back(std::make_unique<storage::Disk>(engine, simple_disk()));
      dptr.push_back(disks.back().get());
    }
    const net::NodeId manager = static_cast<net::NodeId>(providers);
    client = static_cast<net::NodeId>(providers + 1);
    cluster = std::make_unique<SimCluster>(engine, network, store, nodes, dptr,
                                           manager);
  }

  static net::NetworkConfig simple_net() {
    net::NetworkConfig cfg;
    cfg.link_rate = 1000.0;
    cfg.latency = sim::from_seconds(0.01);
    cfg.per_message_overhead = 0;
    cfg.per_message_cpu = 0;
    cfg.connection_setup = 0;
    return cfg;
  }

  static storage::DiskConfig simple_disk() {
    storage::DiskConfig cfg;
    cfg.rate = 500.0;
    cfg.seek_overhead = 0;
    cfg.dirty_limit = 10000;
    return cfg;
  }
};

TEST(SimCluster, FetchChargesDiskAndNetwork) {
  Rig rig(2);
  BlobId b = rig.store.create(2000, 500).value();
  ASSERT_TRUE(rig.store.write_pattern(b, 0, 0, 2000, 1).is_ok());
  double done = 0;
  rig.engine.spawn([](Rig& r, BlobId blob, double* out) -> Task<void> {
    auto locs = co_await r.cluster->locate(r.client, blob, 1, ByteRange{0, 500});
    EXPECT_EQ(locs.size(), 1u);
    co_await r.cluster->fetch(r.client, locs[0], 500);
    *out = r.engine.now_seconds();
  }(rig, b, &done));
  rig.engine.run();
  // locate rpc: ~2*(0.01) + fetch: req 0.256k?0 -> disk 1.0s -> resp 0.5s tx
  // + latency + 0.5 rx. Just sanity-bound it.
  EXPECT_GT(done, 1.0);
  EXPECT_LT(done, 4.0);
  EXPECT_GT(rig.network.total_traffic(), 500u);
}

TEST(SimCluster, SecondFetchHitsProviderPageCache) {
  Rig rig(1);
  BlobId b = rig.store.create(500, 500).value();
  ASSERT_TRUE(rig.store.write_pattern(b, 0, 0, 500, 1).is_ok());
  double first = 0, second = 0;
  rig.engine.spawn([](Rig& r, BlobId blob, double* t1, double* t2) -> Task<void> {
    auto locs = co_await r.cluster->locate(r.client, blob, 1, ByteRange{0, 500});
    co_await r.cluster->fetch(r.client, locs[0], 500);
    *t1 = r.engine.now_seconds();
    co_await r.cluster->fetch(r.client, locs[0], 500);
    *t2 = r.engine.now_seconds();
  }(rig, b, &first, &second));
  rig.engine.run();
  // First fetch: locate rpc (0.256 tx + 0.01 + 0.256 rx, both ways = 1.044)
  // + request (0.522) + platter (1.0) + response (1.01) = 3.576.
  EXPECT_NEAR(first, 3.576, 1e-6);
  // Second fetch repeats the transfers but pays no platter time.
  EXPECT_NEAR(second - first, 0.522 + 1.01, 1e-6);
}

TEST(SimCluster, HoleFetchIsFree) {
  Rig rig(1);
  BlobId b = rig.store.create(500, 500).value();
  double done = -1;
  rig.engine.spawn([](Rig& r, BlobId blob, double* out) -> Task<void> {
    auto locs = co_await r.cluster->locate(r.client, blob, 0, ByteRange{0, 500});
    const Bytes before = r.network.total_traffic();
    co_await r.cluster->fetch(r.client, locs[0], 500);
    EXPECT_EQ(r.network.total_traffic(), before);
    *out = r.engine.now_seconds();
  }(rig, b, &done));
  rig.engine.run();
  EXPECT_GE(done, 0);
}

TEST(SimCluster, CommitPublishesAndCharges) {
  Rig rig(3);
  BlobId b = rig.store.create(1500, 500).value();
  Version got = 0;
  rig.engine.spawn([](Rig& r, BlobId blob, Version* out) -> Task<void> {
    std::vector<ChunkWrite> writes;
    writes.push_back({0, ChunkPayload::pattern(1, 500, 0)});
    writes.push_back({2, ChunkPayload::pattern(1, 500, 1000)});
    *out = co_await r.cluster->commit(r.client, blob, 0, std::move(writes));
    co_await r.cluster->flush_all_disks();
  }(rig, b, &got));
  rig.engine.run();
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(rig.store.info(b)->latest, 1u);
  EXPECT_EQ(rig.store.stored_bytes(), 1000u);
  // Chunk data crossed the network.
  EXPECT_GE(rig.network.total_payload(), 1000u);
}

TEST(SimCluster, CommitWithReplicationPushesAllCopies) {
  Rig rig(3, /*replication=*/2);
  BlobId b = rig.store.create(500, 500).value();
  rig.engine.spawn([](Rig& r, BlobId blob) -> Task<void> {
    std::vector<ChunkWrite> writes;
    writes.push_back({0, ChunkPayload::pattern(1, 500, 0)});
    co_await r.cluster->commit(r.client, blob, 0, std::move(writes));
  }(rig, b));
  rig.engine.run();
  // Both replicas travelled: >= 1000 payload bytes.
  EXPECT_GE(rig.network.total_payload(), 1000u);
  EXPECT_EQ(rig.store.stored_bytes(), 1000u);
}

TEST(SimCluster, CloneIsCheap) {
  Rig rig(2);
  BlobId b = rig.store.create(1000, 500).value();
  ASSERT_TRUE(rig.store.write_pattern(b, 0, 0, 1000, 1).is_ok());
  BlobId clone_id = kInvalidBlob;
  double done = 0;
  rig.engine.spawn([](Rig& r, BlobId blob, BlobId* out, double* t) -> Task<void> {
    *out = co_await r.cluster->clone(r.client, blob, 1);
    *t = r.engine.now_seconds();
  }(rig, b, &clone_id, &done));
  rig.engine.run();
  EXPECT_NE(clone_id, kInvalidBlob);
  // Exactly one small metadata rpc (1.044 s at these toy rates); crucially,
  // no image data moved: cloning a 1000-byte blob costs two 256 B messages.
  EXPECT_NEAR(done, 1.044, 1e-6);
  EXPECT_EQ(rig.network.total_payload(), 512u);
  EXPECT_EQ(rig.store.stored_bytes(), 1000u);
}

TEST(SimCluster, ManyClientsContendOnProvider) {
  // All fetches target the single provider; they serialize on its NIC.
  Rig rig(1);
  BlobId b = rig.store.create(500, 500).value();
  ASSERT_TRUE(rig.store.write_pattern(b, 0, 0, 500, 1).is_ok());
  // Add extra client nodes.
  std::vector<net::NodeId> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(rig.network.add_node());
  std::vector<double> done(4, 0.0);
  for (int i = 0; i < 4; ++i) {
    rig.engine.spawn([](Rig& r, net::NodeId who, BlobId blob, double* out)
                         -> Task<void> {
      auto locs = co_await r.cluster->locate(who, blob, 1, ByteRange{0, 500});
      co_await r.cluster->fetch(who, locs[0], 500);
      *out = r.engine.now_seconds();
    }(rig, clients[i], b, &done[i]));
  }
  rig.engine.run();
  std::sort(done.begin(), done.end());
  // Responses serialize at the provider's TX: completions spread out.
  EXPECT_GT(done[3] - done[0], 1.0);
}

}  // namespace
}  // namespace vmstorm::blob
