#include "blob/chunk.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace vmstorm::blob {
namespace {

std::vector<std::byte> read_all(const ChunkPayload& p) {
  std::vector<std::byte> out(p.size());
  p.read(0, out);
  return out;
}

TEST(ChunkPayload, ZerosReadAsZero) {
  auto p = ChunkPayload::zeros(64);
  for (std::byte b : read_all(p)) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(p.resident_bytes(), 0u);
}

TEST(ChunkPayload, PatternIsDeterministic) {
  auto a = ChunkPayload::pattern(7, 128);
  auto b = ChunkPayload::pattern(7, 128);
  EXPECT_EQ(read_all(a), read_all(b));
  EXPECT_EQ(a.resident_bytes(), 0u);
}

TEST(ChunkPayload, PatternBiasMatchesAbsoluteOffset) {
  // A chunk at image offset 1000 must read the same bytes the whole-image
  // pattern would produce there.
  auto p = ChunkPayload::pattern(42, 64, /*bias=*/1000);
  std::vector<std::byte> out(64);
  p.read(0, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], pattern_byte(42, 1000 + i));
  }
}

TEST(ChunkPayload, PatternReadMatchesPatternByteAtEveryAlignment) {
  // Reads generate a ragged head and tail byte by byte and the whole words
  // between in one store each. Every split must give pattern_byte's bytes,
  // and zeros past the end; the 0xee fill shows any byte left unwritten.
  constexpr std::uint64_t kSeed = 0x5eed;
  for (const Bytes bias : {Bytes{0}, Bytes{5}}) {
    const auto p = ChunkPayload::pattern(kSeed, 64, bias);
    for (Bytes offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 24; ++len) {
        std::vector<std::byte> out(len, std::byte{0xee});
        p.read(offset, out);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(out[i], pattern_byte(kSeed, bias + offset + i))
              << "bias " << bias << " offset " << offset << " len " << len
              << " byte " << i;
        }
      }
    }
    std::vector<std::byte> out(40, std::byte{0xee});
    p.read(37, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::byte want =
          37 + i < 64 ? pattern_byte(kSeed, bias + 37 + i) : std::byte{0};
      ASSERT_EQ(out[i], want) << "bias " << bias << " byte " << i;
    }
  }
}

TEST(ChunkPayload, SubrangeReadMatchesFullRead) {
  auto p = ChunkPayload::pattern(9, 256);
  auto full = read_all(p);
  std::vector<std::byte> part(50);
  p.read(100, part);
  for (std::size_t i = 0; i < part.size(); ++i) EXPECT_EQ(part[i], full[100 + i]);
}

TEST(ChunkPayload, ReadPastEndZeroFills) {
  auto p = ChunkPayload::pattern(9, 16);
  std::vector<std::byte> out(32, std::byte{0xff});
  p.read(8, out);
  for (std::size_t i = 8; i < 32; ++i) EXPECT_EQ(out[i], std::byte{0});
}

TEST(ChunkPayload, WriteMaterializesAndOverlays) {
  auto p = ChunkPayload::pattern(3, 64);
  auto before = read_all(p);
  std::vector<std::byte> patch(8, std::byte{0xab});
  p.write(10, patch);
  EXPECT_FALSE(p.is_synthetic());
  EXPECT_GT(p.resident_bytes(), 0u);
  auto after = read_all(p);
  for (std::size_t i = 0; i < 64; ++i) {
    if (i >= 10 && i < 18) {
      EXPECT_EQ(after[i], std::byte{0xab});
    } else {
      EXPECT_EQ(after[i], before[i]);
    }
  }
}

TEST(ChunkPayload, WriteBeyondEndGrows) {
  auto p = ChunkPayload::zeros(16);
  std::vector<std::byte> patch(8, std::byte{1});
  p.write(12, patch);
  EXPECT_EQ(p.size(), 20u);
}

TEST(ChunkPayload, OwnBytesRoundTrip) {
  std::vector<std::byte> data{std::byte{1}, std::byte{2}, std::byte{3}};
  auto p = ChunkPayload::own(data);
  EXPECT_EQ(read_all(p), data);
  EXPECT_FALSE(p.is_synthetic());
}

TEST(ChunkStore, PutReadErase) {
  ChunkStore cs;
  cs.put(1, ChunkPayload::pattern(5, 100));
  EXPECT_TRUE(cs.contains(1));
  EXPECT_EQ(cs.chunk_count(), 1u);
  EXPECT_EQ(cs.stored_bytes(), 100u);

  std::vector<std::byte> out(10);
  EXPECT_TRUE(cs.read(1, 0, out).is_ok());
  EXPECT_EQ(out[0], pattern_byte(5, 0));

  EXPECT_TRUE(cs.erase(1).is_ok());
  EXPECT_FALSE(cs.contains(1));
  EXPECT_EQ(cs.stored_bytes(), 0u);
}

TEST(ChunkStore, ReadMissingIsNotFound) {
  ChunkStore cs;
  std::vector<std::byte> out(4);
  EXPECT_EQ(cs.read(99, 0, out).code(), StatusCode::kNotFound);
  EXPECT_EQ(cs.erase(99).code(), StatusCode::kNotFound);
}

TEST(ChunkStore, OverwriteAdjustsAccounting) {
  ChunkStore cs;
  cs.put(1, ChunkPayload::pattern(5, 100));
  cs.put(1, ChunkPayload::pattern(6, 40));
  EXPECT_EQ(cs.chunk_count(), 1u);
  EXPECT_EQ(cs.stored_bytes(), 40u);
}

TEST(ChunkStore, SyntheticPayloadsHoldNoRam) {
  ChunkStore cs;
  for (ChunkKey k = 1; k <= 100; ++k) {
    cs.put(k, ChunkPayload::pattern(k, 1_MiB));
  }
  EXPECT_EQ(cs.stored_bytes(), 100 * 1_MiB);
  EXPECT_EQ(cs.resident_bytes(), 0u);
}

}  // namespace
}  // namespace vmstorm::blob
