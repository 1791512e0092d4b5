#include "mirror/local_state.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace vmstorm::mirror {
namespace {

MirrorConfig cfg(Bytes image = 1000, Bytes chunk = 100, bool s1 = true,
                 bool s2 = true) {
  MirrorConfig c;
  c.image_size = image;
  c.chunk_size = chunk;
  c.prefetch_whole_chunks = s1;
  c.single_region_per_chunk = s2;
  return c;
}

TEST(LocalState, ChunkGeometry) {
  LocalState st(cfg(950, 100));
  EXPECT_EQ(st.chunk_count(), 10u);
  EXPECT_EQ(st.chunk_range(0), (ByteRange{0, 100}));
  EXPECT_EQ(st.chunk_range(9), (ByteRange{900, 950}));  // short tail
  // A last chunk whose block end would pass 2^64 still ends at the image.
  const Bytes half = Bytes{1} << 63;
  LocalState big(cfg(~Bytes{0}, half));
  EXPECT_EQ(big.chunk_count(), 2u);
  EXPECT_EQ(big.chunk_range(1), (ByteRange{half, ~Bytes{0}}));
  EXPECT_EQ(big.plan_read({half, half + 10}),
            (std::vector<ByteRange>{{half, ~Bytes{0}}}));
}

TEST(LocalState, PlanReadFetchesWholeChunks) {
  LocalState st(cfg());
  // Request 50 bytes straddling chunks 1 and 2 -> strategy 1 fetches both
  // chunks entirely.
  auto f = st.plan_read({180, 230});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], (ByteRange{100, 200}));
  EXPECT_EQ(f[1], (ByteRange{200, 300}));
}

TEST(LocalState, PlanReadWithoutPrefetchFetchesExactly) {
  LocalState st(cfg(1000, 100, /*s1=*/false));
  auto f = st.plan_read({180, 230});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], (ByteRange{180, 200}));
  EXPECT_EQ(f[1], (ByteRange{200, 230}));
}

TEST(LocalState, MirroredReadNeedsNothing) {
  LocalState st(cfg());
  st.apply_fetch({100, 300});
  EXPECT_TRUE(st.plan_read({150, 250}).empty());
  EXPECT_TRUE(st.is_mirrored({100, 300}));
  EXPECT_FALSE(st.is_mirrored({100, 301}));
}

TEST(LocalState, ReadDoesNotRefetchLocallyWrittenData) {
  LocalState st(cfg());
  st.apply_write({120, 150});
  // Chunk 1 partially present from a write: fetching the chunk must skip
  // the locally-written bytes (they are newer than the remote copy).
  auto f = st.plan_read({110, 130});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], (ByteRange{100, 120}));
  EXPECT_EQ(f[1], (ByteRange{150, 200}));
}

TEST(LocalState, PlanWriteFillsGap) {
  LocalState st(cfg());
  st.apply_write({110, 120});
  // Second write to the same chunk leaving a gap (120..140).
  auto f = st.plan_write({140, 160});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], (ByteRange{120, 140}));
}

TEST(LocalState, PlanWriteNoGapNoFetch) {
  LocalState st(cfg());
  st.apply_write({110, 140});
  EXPECT_TRUE(st.plan_write({130, 160}).empty());  // overlapping extend
  EXPECT_TRUE(st.plan_write({140, 160}).empty());  // adjacent extend
}

TEST(LocalState, PlanWriteFreshChunkNeedsNothing) {
  LocalState st(cfg());
  EXPECT_TRUE(st.plan_write({110, 130}).empty());
}

TEST(LocalState, PlanWriteDisabledStrategyNeverFetches) {
  LocalState st(cfg(1000, 100, true, /*s2=*/false));
  st.apply_write({110, 120});
  EXPECT_TRUE(st.plan_write({140, 160}).empty());
}

TEST(LocalState, WriteBeforeMirroredRegionFillsBackwardGap) {
  LocalState st(cfg());
  st.apply_write({150, 180});
  auto f = st.plan_write({110, 120});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], (ByteRange{120, 150}));
}

TEST(LocalState, DirtyTrackingAndCommitPlan) {
  LocalState st(cfg());
  st.apply_write({110, 130});
  st.apply_fetch({300, 400});  // clean chunk 3
  auto dirty = st.dirty_chunks();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 1u);
  EXPECT_TRUE(st.is_dirty_chunk(1));
  EXPECT_FALSE(st.is_dirty_chunk(3));
  EXPECT_EQ(st.dirty_bytes(), 20u);

  // Commit must complete chunk 1: fetch [100,110) and [130,200).
  auto plan = st.plan_commit();
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], (ByteRange{100, 110}));
  EXPECT_EQ(plan[1], (ByteRange{130, 200}));

  for (const auto& r : plan) st.apply_fetch(r);
  st.clear_dirty();
  EXPECT_TRUE(st.dirty_chunks().empty());
  EXPECT_EQ(st.dirty_bytes(), 0u);
  EXPECT_TRUE(st.is_mirrored({100, 200}));
}

TEST(LocalState, WriteSpanningChunksDirtiesAll) {
  LocalState st(cfg());
  st.apply_write({150, 450});
  EXPECT_EQ(st.dirty_chunks(), (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(LocalState, SerializeRoundTrip) {
  LocalState st(cfg(950, 100, false, true));
  st.apply_write({110, 130});
  st.apply_fetch({300, 420});
  st.apply_write({900, 950});
  auto blob = st.serialize();
  auto restored = LocalState::deserialize(blob);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored->config().image_size, 950u);
  EXPECT_EQ(restored->config().chunk_size, 100u);
  EXPECT_FALSE(restored->config().prefetch_whole_chunks);
  EXPECT_TRUE(restored->config().single_region_per_chunk);
  EXPECT_EQ(restored->mirrored_bytes(), st.mirrored_bytes());
  EXPECT_EQ(restored->dirty_bytes(), st.dirty_bytes());
  EXPECT_EQ(restored->dirty_chunks(), st.dirty_chunks());
  EXPECT_EQ(restored->serialize(), blob);
}

/// A sidecar built word by word: the header, then whatever follows.
std::string sidecar(Bytes image, Bytes chunk, std::uint64_t chunks,
                    std::vector<std::uint64_t> records = {}) {
  std::vector<std::uint64_t> words{0x4d49525253543031ull, image, chunk, 3,
                                   chunks};
  words.insert(words.end(), records.begin(), records.end());
  return std::string(reinterpret_cast<const char*>(words.data()),
                     words.size() * sizeof(std::uint64_t));
}

TEST(LocalState, DeserializeRejectsCorruption) {
  LocalState st(cfg());
  auto blob = st.serialize();
  EXPECT_FALSE(LocalState::deserialize("garbage").is_ok());
  EXPECT_FALSE(LocalState::deserialize(blob.substr(0, 16)).is_ok());
  auto trailing = blob + "x";
  // 1-byte tail cannot even be parsed as a u64.
  EXPECT_FALSE(LocalState::deserialize(trailing).is_ok());

  // The well-formed two-chunk sidecar the cases below break one way each:
  // chunk 0 mirrored [0, 60) with [10, 20) dirty, chunk 1 untouched.
  const std::vector<std::uint64_t> good{1, 1, 0, 60, 1, 10, 20, 0, 0, 0};
  ASSERT_TRUE(LocalState::deserialize(sidecar(150, 100, 2, good)).is_ok());
  const auto with = [&good](std::size_t word, std::uint64_t v) {
    auto r = good;
    r[word] = v;
    return r;
  };
  const auto rejects = [](const std::string& raw) {
    auto r = LocalState::deserialize(raw);
    return !r.is_ok() && r.status().code() == StatusCode::kCorruption;
  };
  // A header claiming more chunk records than the bytes left can hold is
  // rejected before anything is sized from it.
  EXPECT_TRUE(rejects(sidecar(Bytes{1} << 62, 1, Bytes{1} << 62)));
  EXPECT_TRUE(rejects(sidecar(Bytes{1} << 34, 1, Bytes{1} << 34)));
  EXPECT_TRUE(rejects(sidecar(150, 100, 2, {0, 0, 0})));
  // The chunk count must be the image's.
  EXPECT_TRUE(rejects(sidecar(150, 100, 1, good)));
  EXPECT_TRUE(rejects(sidecar(150, 100, 3, good)));
  // Ranges are non-empty and inside their chunk.
  EXPECT_TRUE(rejects(sidecar(150, 100, 2, with(3, 0))));    // [0, 0)
  EXPECT_TRUE(rejects(sidecar(150, 100, 2, with(3, 101))));  // past chunk 0
  EXPECT_TRUE(rejects(sidecar(150, 50, 3, good)));           // chunk is 50
  EXPECT_TRUE(rejects(sidecar(150, 100, 2, with(6, 10))));   // [10, 10)
  EXPECT_TRUE(rejects(sidecar(150, 100, 2, with(5, 30))));   // [30, 20)
  // Every dirty range lies inside a mirrored one.
  EXPECT_TRUE(rejects(sidecar(150, 100, 2, with(6, 70))));   // [10, 70)
}

// The §3.3 guarantee: with strategy 2, fragmentation is bounded by one
// region per chunk, for ANY access sequence (fetches executed as planned).
class MirrorInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {};

TEST_P(MirrorInvariantTest, RandomOpsRespectInvariants) {
  const auto [seed, s1, s2] = GetParam();
  Rng rng(seed);
  const Bytes kImage = 10000, kChunk = 500;
  LocalState st(cfg(kImage, kChunk, s1, s2));
  RangeSet mirrored_model;

  for (int step = 0; step < 400; ++step) {
    Bytes lo = rng.uniform_u64(kImage - 1);
    Bytes hi = lo + 1 + rng.uniform_u64(std::min<Bytes>(kImage - lo, 1200) - 1);
    ByteRange req{lo, hi};
    if (rng.bernoulli(0.5)) {
      auto plan = st.plan_read(req);
      for (const auto& r : plan) {
        // Planned fetches never overlap already-mirrored data.
        ASSERT_FALSE(mirrored_model.overlaps(r)) << r.to_string();
        st.apply_fetch(r);
        mirrored_model.insert(r);
      }
      // After the fetches, the request is fully mirrored.
      ASSERT_TRUE(st.is_mirrored(req));
    } else {
      auto plan = st.plan_write(req);
      for (const auto& r : plan) {
        ASSERT_FALSE(mirrored_model.overlaps(r));
        // Gap fills never cover the write itself.
        ASSERT_FALSE(r.overlaps(req));
        st.apply_fetch(r);
        mirrored_model.insert(r);
      }
      st.apply_write(req);
      mirrored_model.insert(req);
    }
    if (s2) {
      ASSERT_TRUE(st.single_region_invariant_holds()) << "step " << step;
      ASSERT_LE(st.fragment_count(), st.chunk_count());
    }
    ASSERT_EQ(st.mirrored_bytes(), mirrored_model.total_bytes());
  }

  // COMMIT completes all dirty chunks.
  for (const auto& r : st.plan_commit()) st.apply_fetch(r);
  for (std::uint64_t ci : st.dirty_chunks()) {
    ASSERT_TRUE(st.is_mirrored(st.chunk_range(ci)));
  }
  st.clear_dirty();
  EXPECT_TRUE(st.dirty_chunks().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MirrorInvariantTest,
    ::testing::Combine(::testing::Values(1u, 7u, 2011u),
                       ::testing::Bool(),   // strategy 1
                       ::testing::Bool()),  // strategy 2
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_prefetch" : "_noprefetch") +
             (std::get<2>(info.param) ? "_singleregion" : "_fragments");
    });

}  // namespace
}  // namespace vmstorm::mirror
