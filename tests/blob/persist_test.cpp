#include "blob/persist.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/byte_codec.hpp"
#include "support/hex.hpp"

namespace vmstorm::blob {
namespace {

std::vector<std::byte> make_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = pattern_byte(seed, i);
  return v;
}

std::unique_ptr<BlobStore> round_trip(const BlobStore& store) {
  auto bytes = save_store(store);
  EXPECT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  auto loaded = load_store(*bytes);
  EXPECT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  return std::move(loaded).value();
}

TEST(Persist, EmptyStoreRoundTrips) {
  BlobStore store(StoreConfig{.providers = 3});
  auto loaded = round_trip(store);
  EXPECT_EQ(loaded->blob_count(), 0u);
  EXPECT_EQ(loaded->config().providers, 3u);
  EXPECT_EQ(loaded->stored_bytes(), 0u);
}

TEST(Persist, ContentAndVersionsSurvive) {
  BlobStore store(StoreConfig{.providers = 4});
  BlobId a = store.create(16_KiB, 1_KiB).value();
  ASSERT_TRUE(store.write_pattern(a, 0, 0, 16_KiB, 7).is_ok());
  auto data = make_bytes(3000, 9);
  ASSERT_TRUE(store.write(a, 1, 5000, data).is_ok());
  BlobId b = store.clone(a, 2).value();
  ASSERT_TRUE(store.write(b, 0, 0, make_bytes(1024, 11)).is_ok());

  auto loaded = round_trip(store);
  EXPECT_EQ(loaded->blob_count(), 2u);
  EXPECT_EQ(loaded->info(a)->latest, 2u);
  EXPECT_EQ(loaded->info(b)->latest, 1u);
  EXPECT_EQ(loaded->stored_bytes(), store.stored_bytes());

  // Every version of every blob reads identically.
  for (BlobId id : {a, b}) {
    for (Version v = 0; v <= loaded->info(id)->latest; ++v) {
      std::vector<std::byte> want(16_KiB), got(16_KiB);
      ASSERT_TRUE(store.read(id, v, 0, want).is_ok());
      ASSERT_TRUE(loaded->read(id, v, 0, got).is_ok());
      ASSERT_EQ(got, want) << "blob " << id << " v" << v;
    }
  }
}

TEST(Persist, StoreRemainsWritableAfterLoad) {
  BlobStore store(StoreConfig{.providers = 2});
  BlobId a = store.create(8_KiB, 1_KiB).value();
  ASSERT_TRUE(store.write_pattern(a, 0, 0, 8_KiB, 1).is_ok());
  auto loaded = round_trip(store);

  // New blobs get fresh ids; commits continue the version chain.
  BlobId b = loaded->create(4_KiB, 1_KiB).value();
  EXPECT_GT(b, a);
  auto v = loaded->write(a, 1, 0, make_bytes(512, 2));
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(*v, 2u);
  std::vector<std::byte> got(512);
  ASSERT_TRUE(loaded->read(a, 2, 0, got).is_ok());
  EXPECT_EQ(got, make_bytes(512, 2));
  // Old version untouched.
  ASSERT_TRUE(loaded->read(a, 1, 0, got).is_ok());
  EXPECT_EQ(got, make_bytes(512, 1));
}

TEST(Persist, SyntheticPayloadsStayCompact) {
  BlobStore store(StoreConfig{.providers = 4});
  BlobId a = store.create(1_GiB, 256_KiB).value();
  ASSERT_TRUE(store.write_pattern(a, 0, 0, 1_GiB, 5).is_ok());
  auto bytes = save_store(store);
  ASSERT_TRUE(bytes.is_ok());
  // A 1 GiB synthetic image serializes to descriptors, not content.
  EXPECT_LT(bytes->size(), 4_MiB);
  auto loaded = load_store(*bytes);
  ASSERT_TRUE(loaded.is_ok());
  std::vector<std::byte> got(4096);
  ASSERT_TRUE((*loaded)->read(a, 1, 512_MiB, got).is_ok());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], pattern_byte(5, 512_MiB + i));
  }
}

TEST(Persist, ReplicationAndDedupStateSurvive) {
  BlobStore store(StoreConfig{.providers = 3, .replication = 2, .dedup = true});
  BlobId a = store.create(4_KiB, 1_KiB).value();
  std::vector<ChunkWrite> w;
  w.push_back({0, ChunkPayload::pattern(7, 1_KiB, 0)});
  ASSERT_TRUE(store.commit_chunks(a, 0, std::move(w)).is_ok());

  auto loaded = round_trip(store);
  EXPECT_EQ(loaded->config().replication, 2u);
  EXPECT_TRUE(loaded->config().dedup);
  // The dedup index survived: identical content still dedupes.
  std::vector<ChunkWrite> w2;
  w2.push_back({2, ChunkPayload::pattern(7, 1_KiB, 0)});
  auto out = loaded->commit_chunks_detailed(a, 1, std::move(w2));
  ASSERT_TRUE(out.is_ok());
  EXPECT_TRUE(out->deduplicated[0]);
  // Replicas survived: dropping the primary still reads.
  auto locs = loaded->locate(a, 1, ByteRange{0, 1_KiB}).value();
  ASSERT_TRUE(loaded->drop_replica(locs[0].key, locs[0].provider).is_ok());
  std::vector<std::byte> got(1_KiB);
  ASSERT_TRUE(loaded->read(a, 1, 0, got).is_ok());
}

TEST(Persist, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/vmstorm_repo.bin";
  {
    BlobStore store(StoreConfig{.providers = 2});
    BlobId a = store.create(4_KiB, 1_KiB).value();
    ASSERT_TRUE(store.write(a, 0, 100, make_bytes(2000, 3)).is_ok());
    ASSERT_TRUE(save_store_file(store, path).is_ok());
  }
  auto loaded = load_store_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  std::vector<std::byte> got(2000);
  ASSERT_TRUE((*loaded)->read(1, 1, 100, got).is_ok());
  EXPECT_EQ(got, make_bytes(2000, 3));
  std::remove(path.c_str());
}

TEST(Persist, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(load_store("not a repository").is_ok());
  BlobStore store(StoreConfig{.providers = 2});
  BlobId a = store.create(4_KiB, 1_KiB).value();
  ASSERT_TRUE(store.write_pattern(a, 0, 0, 4_KiB, 1).is_ok());
  const std::string full = save_store(store).value();
  for (std::size_t cut : {16u, 64u, 200u}) {
    if (cut >= full.size()) continue;
    EXPECT_FALSE(load_store(full.substr(0, full.size() - cut)).is_ok())
        << "cut " << cut;
  }
  EXPECT_FALSE(load_store_file("/nonexistent/repo.bin").is_ok());

  // Counts no file of that size can hold are CORRUPTION, found before
  // anything is sized from them.
  const auto header = [](std::uint64_t providers) {
    ByteWriter w;
    w.bytes(std::as_bytes(std::span("VMSTREPO", 8)));
    for (std::uint64_t v : {std::uint64_t{1}, providers, std::uint64_t{0},
                            std::uint64_t{1}, std::uint64_t{0},
                            std::uint64_t{0}}) {
      w.u64(v);  // format version, then the config
    }
    return w;
  };
  // With no providers, nothing later has to hold per-provider records, so
  // the next two inputs reach the arena's and the roots' counts.
  ByteWriter providers = header(Bytes{1} << 40);  // 56 bytes
  ByteWriter nodes = header(0);
  nodes.u64(Bytes{1} << 62);  // 64 bytes
  ByteWriter roots = header(0);
  for (std::uint64_t v : {0, 1, 1, 4096, 1024}) roots.u64(v);
  roots.u64(Bytes{1} << 61);  // 104 bytes: no nodes, one blob, its roots
  // An 8-provider repository as `vmstormctl init` saves it, whose last
  // provider now holds one raw chunk claiming 2^60 bytes: 360 bytes.
  std::string chunk = save_store(BlobStore(StoreConfig{.providers = 8})).value();
  chunk.resize(chunk.size() - 8);
  ByteWriter record;
  for (std::uint64_t v : {1, 1, 2}) record.u64(v);  // count, key, kBytes
  record.u64(Bytes{1} << 60);
  chunk += record.str();
  const std::string wild[] = {providers.str(), nodes.str(), roots.str(), chunk};
  const std::size_t sizes[] = {56, 64, 104, 360};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wild[i].size(), sizes[i]);
    auto r = load_store(wild[i]);
    ASSERT_FALSE(r.is_ok()) << "input " << i;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
        << r.status().to_string();
  }
}

TEST(Persist, RepositoryBytesArePinned) {
  // One 8-byte blob of one chunk: a pattern at version 1, raw bytes at
  // version 2. Any change to the codec or the layout moves a byte here.
  BlobStore store(StoreConfig{.providers = 1});
  const BlobId a = store.create(8, 8).value();
  ASSERT_TRUE(store.write_pattern(a, 0, 0, 8, 3).is_ok());
  const std::string raw = "vmstorm!";
  ASSERT_TRUE(store.write(a, 1, 0, std::as_bytes(std::span(raw))).is_ok());
  EXPECT_EQ(test_support::to_hex(save_store(store).value()),
      "564d53545245504f0100000000000000"  // "VMSTREPO", version 1
      "01000000000000000000000000000000"  // 1 provider, policy 0
      "01000000000000000000000000000000db07000000000000"  // replication 1, no dedup, seed
      "0300000000000000"  // 3 arena nodes:
      "00000000000000000100000000000000"  //   [0, 1),
      "ffffffffffffffffffffffffffffffff"  //   no children,
      "000000000000000000000000000000000000000000000000"  //   chunk 0, provider 0, key 0
      "00000000000000000100000000000000"  //   [0, 1),
      "ffffffffffffffffffffffffffffffff"  //   no children,
      "000000000000000000000000000000000100000000000000"  //   chunk 0, provider 0, key 1
      "00000000000000000100000000000000"  //   [0, 1),
      "ffffffffffffffffffffffffffffffff"  //   no children,
      "000000000000000000000000000000000200000000000000"  //   chunk 0, provider 0, key 2
      "01000000000000000100000000000000"  // 1 blob: id 1,
      "08000000000000000800000000000000"  //   8 bytes in 8-byte chunks,
      "0300000000000000"  //   3 versions:
      "000000000000000001000000000000000200000000000000"  //   roots 0, 1, 2
      "02000000000000000300000000000000"  // next blob 2, next key 3
      "0200000000000000"  // 2 replica lists:
      "010000000000000001000000000000000000000000000000"  //   key 1 on 1 provider: 0
      "020000000000000001000000000000000000000000000000"  //   key 2 on 1 provider: 0
      "000000000000000000000000000000000000000000000000"  // no dedup entries, hits, savings
      "01000000000000001000000000000000"  // 1 provider: 16 bytes,
      "02000000000000000000000000000000"  //   2 chunks; next rr 0
      "01000000000000000200000000000000"  // 1 chunk store of 2 chunks:
      "010000000000000001000000000000000800000000000000"  //   key 1: pattern, 8 bytes,
      "03000000000000000000000000000000"  //   seed 3, bias 0
      "020000000000000002000000000000000800000000000000"  //   key 2: raw, 8 bytes:
      "766d73746f726d21");  // "vmstorm!"
}

}  // namespace
}  // namespace vmstorm::blob
