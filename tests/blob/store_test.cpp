#include "blob/store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace vmstorm::blob {
namespace {

std::vector<std::byte> make_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = pattern_byte(seed, i);
  return v;
}

std::vector<std::byte> read_range(const BlobStore& s, BlobId b, Version v,
                                  Bytes off, Bytes len) {
  std::vector<std::byte> out(len);
  EXPECT_TRUE(s.read(b, v, off, out).is_ok());
  return out;
}

TEST(BlobStore, CreateAndInfo) {
  BlobStore s;
  auto id = s.create(1_MiB, 64_KiB);
  ASSERT_TRUE(id.is_ok());
  auto info = s.info(*id);
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info->size, 1_MiB);
  EXPECT_EQ(info->chunk_size, 64_KiB);
  EXPECT_EQ(info->latest, 0u);
  EXPECT_EQ(info->chunk_count, 16u);
  EXPECT_EQ(s.blob_count(), 1u);
  // A chunk size near 2^64 still makes one chunk; a count that wrapped to
  // 0 would ask for an empty segment tree, whose build never finishes.
  auto big = s.create(100, ~Bytes{0} - 50);
  ASSERT_TRUE(big.is_ok());
  EXPECT_EQ(s.info(*big)->chunk_count, 1u);
}

TEST(BlobStore, CreateRejectsZeroSizes) {
  BlobStore s;
  EXPECT_FALSE(s.create(0, 64).is_ok());
  EXPECT_FALSE(s.create(64, 0).is_ok());
}

TEST(BlobStore, Version0ReadsAsZeros) {
  BlobStore s;
  BlobId b = s.create(4096, 512).value();
  auto out = read_range(s, b, 0, 100, 200);
  for (std::byte x : out) EXPECT_EQ(x, std::byte{0});
}

TEST(BlobStore, WriteReadRoundTrip) {
  BlobStore s;
  BlobId b = s.create(4096, 512).value();
  auto data = make_bytes(1000, 1);
  auto v = s.write(b, 0, 300, data);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(*v, 1u);
  EXPECT_EQ(read_range(s, b, 1, 300, 1000), data);
  // Around the write: still zero.
  for (std::byte x : read_range(s, b, 1, 0, 300)) EXPECT_EQ(x, std::byte{0});
  for (std::byte x : read_range(s, b, 1, 1300, 100)) EXPECT_EQ(x, std::byte{0});
}

TEST(BlobStore, UnalignedWritePreservesNeighbors) {
  BlobStore s;
  BlobId b = s.create(2048, 512).value();
  auto base = make_bytes(2048, 7);
  ASSERT_TRUE(s.write(b, 0, 0, base).is_ok());
  // Overwrite a span crossing chunk 1/2 boundary, unaligned on both ends.
  auto patch = make_bytes(600, 9);
  auto v = s.write(b, 1, 700, patch);
  ASSERT_TRUE(v.is_ok());
  auto got = read_range(s, b, 2, 0, 2048);
  for (std::size_t i = 0; i < 2048; ++i) {
    std::byte want = (i >= 700 && i < 1300) ? pattern_byte(9, i - 700)
                                            : pattern_byte(7, i);
    ASSERT_EQ(got[i], want) << "at " << i;
  }
}

TEST(BlobStore, ShadowingOldVersionImmutable) {
  BlobStore s;
  BlobId b = s.create(4096, 512).value();
  auto d1 = make_bytes(512, 1);
  auto d2 = make_bytes(512, 2);
  ASSERT_TRUE(s.write(b, 0, 0, d1).is_ok());
  ASSERT_TRUE(s.write(b, 1, 0, d2).is_ok());
  EXPECT_EQ(read_range(s, b, 1, 0, 512), d1);  // v1 unchanged
  EXPECT_EQ(read_range(s, b, 2, 0, 512), d2);
}

TEST(BlobStore, StaleBaseRejected) {
  BlobStore s;
  BlobId b = s.create(4096, 512).value();
  auto d = make_bytes(512, 1);
  ASSERT_TRUE(s.write(b, 0, 0, d).is_ok());  // publishes v1
  auto r = s.write(b, 0, 0, d);              // stale base
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BlobStore, WritePastEndRejected) {
  BlobStore s;
  BlobId b = s.create(1024, 512).value();
  auto d = make_bytes(100, 1);
  EXPECT_EQ(s.write(b, 0, 1000, d).status().code(), StatusCode::kOutOfRange);
  // offset + size wraps past 2^64 to 90, inside the blob: still rejected.
  const Bytes wraps = ~Bytes{0} - 9;
  EXPECT_EQ(s.write(b, 0, wraps, d).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.write_pattern(b, 0, wraps, 100, 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(s.info(b)->latest, 0u);
}

TEST(BlobStore, ReadPastEndRejected) {
  BlobStore s;
  BlobId b = s.create(1024, 512).value();
  std::vector<std::byte> out(100);
  EXPECT_EQ(s.read(b, 0, 1000, out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.read(b, 0, ~Bytes{0} - 9, out).code(), StatusCode::kOutOfRange);
}

TEST(BlobStore, UnknownBlobAndVersion) {
  BlobStore s;
  std::vector<std::byte> out(8);
  EXPECT_EQ(s.read(99, 0, 0, out).code(), StatusCode::kNotFound);
  BlobId b = s.create(1024, 512).value();
  EXPECT_EQ(s.read(b, 5, 0, out).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(s.clone(99, 0).is_ok());
  EXPECT_FALSE(s.info(99).is_ok());
}

TEST(BlobStore, CloneSharesContent) {
  BlobStore s;
  BlobId a = s.create(4096, 512).value();
  auto d = make_bytes(4096, 3);
  ASSERT_TRUE(s.write(a, 0, 0, d).is_ok());
  const Bytes stored_before = s.stored_bytes();

  BlobId b = s.clone(a, 1).value();
  EXPECT_EQ(s.stored_bytes(), stored_before);  // zero data duplication
  EXPECT_EQ(read_range(s, b, 0, 0, 4096), d);
}

TEST(BlobStore, CloneDivergesIndependently) {
  BlobStore s;
  BlobId a = s.create(4096, 512).value();
  auto base = make_bytes(4096, 3);
  ASSERT_TRUE(s.write(a, 0, 0, base).is_ok());
  BlobId b = s.clone(a, 1).value();

  auto patch = make_bytes(512, 5);
  ASSERT_TRUE(s.write(b, 0, 1024, patch).is_ok());
  // Original untouched.
  EXPECT_EQ(read_range(s, a, 1, 1024, 512), std::vector<std::byte>(
      base.begin() + 1024, base.begin() + 1536));
  // Clone sees the patch, shares the rest.
  EXPECT_EQ(read_range(s, b, 1, 1024, 512), patch);
  EXPECT_EQ(read_range(s, b, 1, 0, 512), std::vector<std::byte>(
      base.begin(), base.begin() + 512));
}

TEST(BlobStore, MultisnapshottingStoresOnlyDiffs) {
  // The storage-saving claim: 10 clones each committing a small diff of a
  // big image consume base + diffs, not 10 full images.
  BlobStore s(StoreConfig{.providers = 4});
  const Bytes image = 8_MiB, chunk = 256_KiB, diff = 512_KiB;
  BlobId base = s.create(image, chunk).value();
  ASSERT_TRUE(s.write_pattern(base, 0, 0, image, 42).is_ok());
  const Bytes after_base = s.stored_bytes();
  EXPECT_EQ(after_base, image);

  for (int i = 0; i < 10; ++i) {
    BlobId c = s.clone(base, 1).value();
    ASSERT_TRUE(s.write_pattern(c, 0, 0, diff, 100 + i).is_ok());
  }
  EXPECT_EQ(s.stored_bytes(), image + 10 * diff);
  // Metadata also shared: far fewer nodes than 11 full trees.
  const std::size_t full_tree = 2 * (image / chunk);
  EXPECT_LT(s.metadata_nodes(), full_tree + 11 * 40);
}

TEST(BlobStore, WritePatternMatchesExplicitBytes) {
  // Boundary chunks generate [lo, hi) of a chunk. Over these ranges lo and
  // hi take every residue mod 8; one range stays inside a single chunk.
  struct Range { Bytes offset, length; };
  for (const Range r : {Range{100, 2000}, Range{1, 1022}, Range{515, 6},
                        Range{1030, 1000}, Range{2565, 1000}, Range{7, 3067},
                        Range{1538, 2001}, Range{8, 4000}}) {
    BlobStore s;
    BlobId a = s.create(4096, 512).value();
    ASSERT_TRUE(s.write_pattern(a, 0, r.offset, r.length, 11).is_ok());
    auto got = read_range(s, a, 1, 0, 4096);
    for (std::size_t i = 0; i < 4096; ++i) {
      const bool in = i >= r.offset && i < r.offset + r.length;
      ASSERT_EQ(got[i], in ? pattern_byte(11, i) : std::byte{0})
          << r.offset << "+" << r.length << " @" << i;
    }
    // On a base holding another pattern, boundary chunks overlay real base
    // bytes: write_pattern and write() of the same bytes must agree.
    BlobStore ps, es;
    BlobId pa = ps.create(4096, 512).value();
    BlobId ea = es.create(4096, 512).value();
    ASSERT_TRUE(ps.write_pattern(pa, 0, 0, 4096, 5).is_ok());
    ASSERT_TRUE(es.write_pattern(ea, 0, 0, 4096, 5).is_ok());
    std::vector<std::byte> bytes(r.length);
    for (Bytes i = 0; i < r.length; ++i) bytes[i] = pattern_byte(11, r.offset + i);
    ASSERT_TRUE(ps.write_pattern(pa, 1, r.offset, r.length, 11).is_ok());
    ASSERT_TRUE(es.write(ea, 1, r.offset, bytes).is_ok());
    const auto via_pattern = read_range(ps, pa, 2, 0, 4096);
    ASSERT_EQ(via_pattern, read_range(es, ea, 2, 0, 4096))
        << r.offset << "+" << r.length;
    for (std::size_t i = 0; i < 4096; ++i) {
      const bool in = i >= r.offset && i < r.offset + r.length;
      ASSERT_EQ(via_pattern[i], pattern_byte(in ? 11 : 5, i))
          << r.offset << "+" << r.length << " @" << i;
    }
  }
}

TEST(BlobStore, LocateReportsPlacements) {
  BlobStore s(StoreConfig{.providers = 4});
  BlobId a = s.create(4096, 512).value();
  ASSERT_TRUE(s.write_pattern(a, 0, 0, 4096, 1).is_ok());
  auto locs = s.locate(a, 1, ByteRange{0, 4096});
  ASSERT_TRUE(locs.is_ok());
  ASSERT_EQ(locs->size(), 8u);
  // Round-robin: providers cycle.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*locs)[i].provider, i % 4);
    EXPECT_FALSE((*locs)[i].is_hole());
  }
}

TEST(BlobStore, LocateEmptyAndOutOfRange) {
  BlobStore s;
  BlobId a = s.create(4096, 512).value();
  auto locs = s.locate(a, 0, ByteRange{10, 10});
  ASSERT_TRUE(locs.is_ok());
  EXPECT_TRUE(locs->empty());
  EXPECT_FALSE(s.locate(a, 0, ByteRange{0, 5000}).is_ok());
}

TEST(BlobStore, ReplicationStoresCopies) {
  BlobStore s(StoreConfig{.providers = 3, .replication = 2});
  BlobId a = s.create(1024, 512).value();
  ASSERT_TRUE(s.write_pattern(a, 0, 0, 1024, 1).is_ok());
  EXPECT_EQ(s.stored_bytes(), 2048u);  // 2 chunks x 2 replicas
  auto locs = s.locate(a, 1, ByteRange{0, 1024});
  for (const auto& l : *locs) {
    EXPECT_EQ(s.replicas_of(l.key).size(), 2u);
  }
}

TEST(BlobStore, ReadSurvivesReplicaLoss) {
  BlobStore s(StoreConfig{.providers = 3, .replication = 2});
  BlobId a = s.create(1024, 512).value();
  ASSERT_TRUE(s.write_pattern(a, 0, 0, 1024, 1).is_ok());
  auto locs = s.locate(a, 1, ByteRange{0, 1024});
  // Kill the primary replica of every chunk.
  for (const auto& l : *locs) {
    ASSERT_TRUE(s.drop_replica(l.key, l.provider).is_ok());
  }
  auto got = read_range(s, a, 1, 0, 1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(got[i], pattern_byte(1, i));
  }
}

// The write paths read a partially overwritten chunk's base content under
// the store's lock; a lost primary must fall back to the surviving replica
// there too, without taking the lock again.
TEST(BlobStore, WritesAfterPrimaryLossReadSurvivingReplica) {
  BlobStore s(StoreConfig{.providers = 3, .replication = 2});
  BlobId a = s.create(1024, 512).value();
  ASSERT_TRUE(s.write_pattern(a, 0, 0, 1024, 1).is_ok());
  auto locs = s.locate(a, 1, ByteRange{0, 1024});
  for (const auto& l : *locs) {
    ASSERT_TRUE(s.drop_replica(l.key, l.provider).is_ok());
  }
  // Partial write into chunk 0, then a boundary pattern write into chunk 1.
  auto v2 = s.write(a, 1, 100, make_bytes(50, 2));
  ASSERT_TRUE(v2.is_ok()) << v2.status().to_string();
  auto v3 = s.write_pattern(a, *v2, 600, 100, 3);
  ASSERT_TRUE(v3.is_ok()) << v3.status().to_string();
  auto got = read_range(s, a, *v3, 0, 1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    std::byte want = pattern_byte(1, i);
    if (i >= 100 && i < 150) want = pattern_byte(2, i - 100);
    if (i >= 600 && i < 700) want = pattern_byte(3, i);
    ASSERT_EQ(got[i], want) << i;
  }
}

TEST(BlobStore, ReadFailsWhenAllReplicasLost) {
  BlobStore s(StoreConfig{.providers = 2, .replication = 1});
  BlobId a = s.create(512, 512).value();
  ASSERT_TRUE(s.write_pattern(a, 0, 0, 512, 1).is_ok());
  auto locs = s.locate(a, 1, ByteRange{0, 512});
  ASSERT_TRUE(s.drop_replica((*locs)[0].key, (*locs)[0].provider).is_ok());
  std::vector<std::byte> out(512);
  EXPECT_EQ(s.read(a, 1, 0, out).code(), StatusCode::kUnavailable);
}

TEST(BlobStore, CommitChunksDirect) {
  BlobStore s(StoreConfig{.providers = 2});
  BlobId a = s.create(2048, 512).value();
  std::vector<ChunkWrite> writes;
  writes.push_back({1, ChunkPayload::pattern(5, 512, 512)});
  writes.push_back({3, ChunkPayload::pattern(5, 512, 1536)});
  auto v = s.commit_chunks(a, 0, std::move(writes));
  ASSERT_TRUE(v.is_ok());
  auto got = read_range(s, a, *v, 0, 2048);
  for (std::size_t i = 0; i < 2048; ++i) {
    bool written = (i >= 512 && i < 1024) || (i >= 1536);
    ASSERT_EQ(got[i], written ? pattern_byte(5, i) : std::byte{0}) << i;
  }
}

TEST(BlobStore, CommitChunksRejectsBadIndex) {
  BlobStore s;
  BlobId a = s.create(1024, 512).value();
  std::vector<ChunkWrite> writes;
  writes.push_back({9, ChunkPayload::zeros(512)});
  EXPECT_EQ(s.commit_chunks(a, 0, std::move(writes)).status().code(),
            StatusCode::kOutOfRange);
}

TEST(BlobStore, EmptyWriteKeepsVersion) {
  BlobStore s;
  BlobId a = s.create(1024, 512).value();
  auto v = s.write(a, 0, 10, {});
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(*v, 0u);
  EXPECT_EQ(s.info(a)->latest, 0u);
}

TEST(BlobStore, ConcurrentReadersWhileCommitting) {
  BlobStore s(StoreConfig{.providers = 4});
  BlobId a = s.create(1_MiB, 64_KiB).value();
  ASSERT_TRUE(s.write_pattern(a, 0, 0, 1_MiB, 1).is_ok());

  std::vector<BlobId> clones;
  for (int i = 0; i < 4; ++i) clones.push_back(s.clone(a, 1).value());

  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  // Writers: each clone evolves independently on its own thread.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      BlobId c = clones[t];
      Version v = 0;
      for (int i = 0; i < 20; ++i) {
        auto r = s.write_pattern(c, v, (i % 16) * 64_KiB, 64_KiB, 100 + t);
        if (!r.is_ok()) {
          failed = true;
          return;
        }
        v = *r;
      }
    });
  }
  // Readers: hammer the shared base image.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      std::vector<std::byte> buf(64_KiB);
      for (int i = 0; i < 50; ++i) {
        if (!s.read(a, 1, (i % 16) * 64_KiB, buf).is_ok()) {
          failed = true;
          return;
        }
        if (buf[0] != pattern_byte(1, (i % 16) * 64_KiB)) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  for (BlobId c : clones) EXPECT_EQ(s.info(c)->latest, 20u);
}

}  // namespace
}  // namespace vmstorm::blob
