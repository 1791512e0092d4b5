#include "common/interval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace vmstorm {
namespace {

TEST(ByteRange, BasicPredicates) {
  ByteRange r{10, 20};
  EXPECT_EQ(r.size(), 10u);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains(10));
  EXPECT_TRUE(r.contains(19));
  EXPECT_FALSE(r.contains(20));
  EXPECT_FALSE(r.contains(9));
}

TEST(ByteRange, EmptyRange) {
  ByteRange r{5, 5};
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  ByteRange inverted{7, 3};
  EXPECT_TRUE(inverted.empty());
  EXPECT_EQ(inverted.size(), 0u);
}

TEST(ByteRange, ContainsRange) {
  ByteRange r{10, 20};
  EXPECT_TRUE(r.contains(ByteRange{10, 20}));
  EXPECT_TRUE(r.contains(ByteRange{12, 15}));
  EXPECT_TRUE(r.contains(ByteRange{15, 15}));  // empty is contained anywhere
  EXPECT_FALSE(r.contains(ByteRange{9, 15}));
  EXPECT_FALSE(r.contains(ByteRange{15, 21}));
}

TEST(ByteRange, Overlaps) {
  ByteRange r{10, 20};
  EXPECT_TRUE(r.overlaps({19, 25}));
  EXPECT_TRUE(r.overlaps({0, 11}));
  EXPECT_FALSE(r.overlaps({20, 25}));
  EXPECT_FALSE(r.overlaps({0, 10}));
  EXPECT_FALSE(r.overlaps({15, 15}));
}

TEST(ByteRange, Intersect) {
  ByteRange r{10, 20};
  EXPECT_EQ(r.intersect({15, 30}), (ByteRange{15, 20}));
  EXPECT_EQ(r.intersect({0, 12}), (ByteRange{10, 12}));
  EXPECT_TRUE(r.intersect({25, 30}).empty());
}

TEST(ByteRange, Hull) {
  EXPECT_EQ((ByteRange{10, 20}.hull({30, 40})), (ByteRange{10, 40}));
  EXPECT_EQ((ByteRange{0, 0}.hull({30, 40})), (ByteRange{30, 40}));
  EXPECT_EQ((ByteRange{30, 40}.hull({0, 0})), (ByteRange{30, 40}));
}

TEST(RangeSet, InsertCoalescesAdjacent) {
  RangeSet s;
  s.insert({0, 10});
  s.insert({10, 20});
  EXPECT_EQ(s.fragment_count(), 1u);
  EXPECT_TRUE(s.contains({0, 20}));
}

TEST(RangeSet, InsertCoalescesOverlap) {
  RangeSet s;
  s.insert({0, 10});
  s.insert({5, 15});
  s.insert({20, 30});
  EXPECT_EQ(s.fragment_count(), 2u);
  EXPECT_TRUE(s.contains({0, 15}));
  EXPECT_FALSE(s.contains({0, 16}));
  EXPECT_EQ(s.total_bytes(), 25u);
}

TEST(RangeSet, InsertBridgesManyRanges) {
  RangeSet s;
  s.insert({0, 5});
  s.insert({10, 15});
  s.insert({20, 25});
  s.insert({3, 22});
  EXPECT_EQ(s.fragment_count(), 1u);
  EXPECT_TRUE(s.contains({0, 25}));
}

TEST(RangeSet, EraseSplits) {
  RangeSet s;
  s.insert({0, 30});
  s.erase({10, 20});
  EXPECT_EQ(s.fragment_count(), 2u);
  EXPECT_TRUE(s.contains({0, 10}));
  EXPECT_TRUE(s.contains({20, 30}));
  EXPECT_FALSE(s.overlaps({10, 20}));
}

TEST(RangeSet, EraseAcrossRanges) {
  RangeSet s;
  s.insert({0, 10});
  s.insert({20, 30});
  s.insert({40, 50});
  s.erase({5, 45});
  auto v = s.to_vector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], (ByteRange{0, 5}));
  EXPECT_EQ(v[1], (ByteRange{45, 50}));
}

TEST(RangeSet, MissingWithin) {
  RangeSet s;
  s.insert({10, 20});
  s.insert({30, 40});
  auto gaps = s.missing_within({0, 50});
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (ByteRange{0, 10}));
  EXPECT_EQ(gaps[1], (ByteRange{20, 30}));
  EXPECT_EQ(gaps[2], (ByteRange{40, 50}));
}

TEST(RangeSet, MissingWithinFullyPresent) {
  RangeSet s;
  s.insert({0, 100});
  EXPECT_TRUE(s.missing_within({10, 90}).empty());
}

TEST(RangeSet, PresentWithinClips) {
  RangeSet s;
  s.insert({10, 20});
  auto p = s.present_within({15, 50});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], (ByteRange{15, 20}));
}

TEST(RangeSet, EmptyOperationsAreNoops) {
  RangeSet s;
  s.insert({5, 5});
  EXPECT_TRUE(s.empty());
  s.erase({0, 100});
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.contains({7, 7}));
  EXPECT_FALSE(s.overlaps({0, 100}));
}

// Property test: RangeSet agrees with a per-byte reference model under a
// random mix of inserts and erases.
class RangeSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeSetPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  constexpr Bytes kSpace = 512;
  RangeSet s;
  std::set<Bytes> model;

  for (int step = 0; step < 300; ++step) {
    Bytes lo = rng.uniform_u64(kSpace);
    Bytes hi = lo + rng.uniform_u64(64);
    if (hi > kSpace) hi = kSpace;
    if (rng.bernoulli(0.7)) {
      s.insert({lo, hi});
      for (Bytes b = lo; b < hi; ++b) model.insert(b);
    } else {
      s.erase({lo, hi});
      for (Bytes b = lo; b < hi; ++b) model.erase(b);
    }

    // Invariant: byte count matches.
    ASSERT_EQ(s.total_bytes(), model.size());

    // Invariant: ranges are disjoint, sorted, non-adjacent.
    auto v = s.to_vector();
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      ASSERT_LT(v[i].hi, v[i + 1].lo) << s.to_string();
    }

    // Spot-check membership on random probes.
    for (int probe = 0; probe < 16; ++probe) {
      Bytes b = rng.uniform_u64(kSpace);
      ASSERT_EQ(s.contains({b, b + 1}), model.count(b) > 0)
          << "byte " << b << " in " << s.to_string();
    }

    // missing_within + present_within partition any window.
    Bytes wlo = rng.uniform_u64(kSpace);
    Bytes whi = std::min<Bytes>(kSpace, wlo + rng.uniform_u64(128));
    Bytes covered = 0;
    for (auto& g : s.missing_within({wlo, whi})) covered += g.size();
    for (auto& p : s.present_within({wlo, whi})) covered += p.size();
    ASSERT_EQ(covered, whi - wlo);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 2011u, 0xdeadbeefu));

TEST(BlockCount, IsCeilDivisionWithoutWrap) {
  EXPECT_EQ(block_count(0, 7), 0u);
  EXPECT_EQ(block_count(21, 7), 3u);
  EXPECT_EQ(block_count(22, 7), 4u);
  EXPECT_EQ(block_count(~Bytes{0}, 2), Bytes{1} << 63);
  EXPECT_EQ(block_count(~Bytes{0}, ~Bytes{0}), 1u);
  EXPECT_EQ(block_count(100, ~Bytes{0} - 50), 1u);
}

// The reference: block pieces walked in 128-bit arithmetic, where no block
// end can wrap.
std::vector<BlockPiece> reference_walk(ByteRange r, Bytes block) {
  using U128 = unsigned __int128;
  std::vector<BlockPiece> out;
  for (U128 i = r.lo / block; r.lo < r.hi && i * block < r.hi; ++i) {
    const U128 base = i * block;
    const U128 end = std::min<U128>(base + block, r.hi);
    out.push_back({static_cast<std::uint64_t>(i), static_cast<Bytes>(base),
                   {std::max<Bytes>(r.lo, static_cast<Bytes>(base)),
                    static_cast<Bytes>(end)}});
  }
  return out;
}

TEST(BlockSplit, MatchesReferenceWalk) {
  constexpr Bytes kMax = ~Bytes{0};
  struct Case {
    ByteRange r;
    Bytes block;
  };
  // Empty and reversed ranges, then seeded random pairs.
  std::vector<Case> cases = {{{0, 0}, 4},       {{5, 5}, 4},
                             {{9, 3}, 4},       {{kMax, kMax}, 4},
                             {{kMax, 0}, 4},    {{kMax - 1, kMax}, kMax},
                             {{0, kMax}, kMax}, {{kMax - 9, kMax - 4}, 100}};
  Rng rng(2011);
  for (int k = 0; k < 120000; ++k) {
    // Blocks from 1 to 2^40 at every scale, and 2^64 - 1.
    const Bytes block =
        k % 19 == 0 ? kMax : 1 + rng.uniform_u64(Bytes{1} << rng.uniform_u64(41));
    // Up to 4 blocks long, so every walk stays short.
    const Bytes span = block > kMax / 4 ? kMax : 4 * block;
    const Bytes len = rng.uniform_u64(span) + (k % 7 == 0 ? 0 : 1);
    ByteRange r;
    if (k % 2 == 0) {
      // End within 3 blocks of 2^64.
      const Bytes back = block > kMax / 3 ? kMax : 3 * block;
      r.hi = kMax - rng.uniform_u64(back);
      r.lo = len > r.hi ? 0 : r.hi - len;
    } else {
      r.lo = rng.next_u64() >> rng.uniform_u64(64);
      r.hi = len > kMax - r.lo ? kMax : r.lo + len;
    }
    if (k % 13 == 0) std::swap(r.lo, r.hi);  // reversed (or still empty)
    cases.push_back({r, block});
  }
  for (const auto& [r, block] : cases) {
    const std::vector<BlockPiece> want = reference_walk(r, block);
    std::vector<BlockPiece> got;
    for (const BlockPiece& p : split_blocks(r, block)) {
      got.push_back(p);
      if (got.size() > want.size()) break;  // a walk that never ends
    }
    ASSERT_EQ(got.size(), want.size()) << r.to_string() << " / " << block;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].index, want[i].index) << r.to_string() << " / " << block;
      ASSERT_EQ(got[i].base, want[i].base) << r.to_string() << " / " << block;
      ASSERT_EQ(got[i].range, want[i].range) << r.to_string() << " / " << block;
    }
    const unsigned __int128 ceil =
        (static_cast<unsigned __int128>(r.hi) + block - 1) / block;
    ASSERT_EQ(block_count(r.hi, block), static_cast<Bytes>(ceil)) << r.hi;
  }
}

}  // namespace
}  // namespace vmstorm
