#include "dfs/striped_fs.hpp"

#include <gtest/gtest.h>

#include "blob/chunk.hpp"

namespace vmstorm::dfs {
namespace {

std::vector<std::byte> make_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = blob::pattern_byte(seed, i);
  return v;
}

TEST(StripedFs, CreateOpenRemove) {
  StripedFs fs(4, 100);
  auto id = fs.create("img");
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(fs.open("img").value(), *id);
  EXPECT_EQ(fs.create("img").status().code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(fs.remove("img").is_ok());
  EXPECT_FALSE(fs.open("img").is_ok());
  EXPECT_EQ(fs.remove("img").code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.file_count(), 0u);
}

TEST(StripedFs, WriteReadRoundTrip) {
  StripedFs fs(3, 100);
  FileId f = fs.create("a").value();
  auto data = make_bytes(450, 7);
  ASSERT_TRUE(fs.write(f, 25, data).is_ok());
  EXPECT_EQ(fs.stat(f)->size, 475u);
  std::vector<std::byte> out(450);
  ASSERT_TRUE(fs.read(f, 25, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(StripedFs, HolesReadAsZeros) {
  StripedFs fs(2, 100);
  FileId f = fs.create("a").value();
  auto data = make_bytes(10, 1);
  ASSERT_TRUE(fs.write(f, 300, data).is_ok());
  std::vector<std::byte> out(100);
  ASSERT_TRUE(fs.read(f, 0, out).is_ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(StripedFs, ReadPastEofFails) {
  StripedFs fs(2, 100);
  FileId f = fs.create("a").value();
  ASSERT_TRUE(fs.write(f, 0, make_bytes(50, 1)).is_ok());
  std::vector<std::byte> out(100);
  EXPECT_EQ(fs.read(f, 0, out).code(), StatusCode::kOutOfRange);
  // offset + size wraps past 2^64 to 40, inside the file: still rejected.
  EXPECT_EQ(fs.read(f, ~Bytes{0} - 59, out).code(), StatusCode::kOutOfRange);
}

TEST(StripedFs, RangesWrappingPast2To64Fail) {
  StripedFs fs(2, 100);
  FileId f = fs.create("a").value();
  // [2^64 - 10, 2^64 + 90): files grow on write, so only the wrap bounds it.
  const Bytes offset = ~Bytes{0} - 9;
  EXPECT_EQ(fs.write(f, offset, make_bytes(100, 1)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fs.write_pattern(f, offset, 100, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fs.layout(f, offset, 100).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fs.stat(f)->size, 0u);
  EXPECT_EQ(fs.stored_bytes(), 0u);
}

TEST(StripedFs, LastStripeStraddling2To64) {
  // Stripe 184467440737095516 spans [2^64 - 16, 2^64 + 84): its end is past
  // 2^64, but the range [2^64 - 10, 2^64 - 5) is not, so all three calls
  // serve it from that one stripe.
  StripedFs fs(2, 100);
  FileId f = fs.create("a").value();
  const Bytes offset = ~Bytes{0} - 9;
  auto layout = fs.layout(f, offset, 5);
  ASSERT_TRUE(layout.is_ok());
  ASSERT_EQ(layout->size(), 1u);
  EXPECT_EQ((*layout)[0].stripe_index, 184467440737095516u);
  EXPECT_EQ((*layout)[0].server, 0u);
  EXPECT_EQ((*layout)[0].offset_in_file, offset);
  EXPECT_EQ((*layout)[0].offset_in_stripe, 6u);
  EXPECT_EQ((*layout)[0].length, 5u);

  const auto in = make_bytes(5, 3);
  ASSERT_TRUE(fs.write(f, offset, in).is_ok());
  std::vector<std::byte> out(5);
  ASSERT_TRUE(fs.read(f, offset, out).is_ok());
  EXPECT_EQ(out, in);

  ASSERT_TRUE(fs.write_pattern(f, offset, 5, 9).is_ok());
  std::vector<std::byte> want(5);
  blob::fill_pattern(9, offset, want);
  ASSERT_TRUE(fs.read(f, offset, out).is_ok());
  EXPECT_EQ(out, want);
}

TEST(StripedFs, RoundRobinLayout) {
  StripedFs fs(3, 100);
  FileId f = fs.create("a").value();
  ASSERT_TRUE(fs.write_pattern(f, 0, 1000, 1).is_ok());
  auto layout = fs.layout(f, 0, 1000);
  ASSERT_TRUE(layout.is_ok());
  ASSERT_EQ(layout->size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*layout)[i].stripe_index, i);
    EXPECT_EQ((*layout)[i].server, i % 3);
    EXPECT_EQ((*layout)[i].length, 100u);
  }
}

TEST(StripedFs, LayoutPartialPieces) {
  StripedFs fs(2, 100);
  FileId f = fs.create("a").value();
  auto layout = fs.layout(f, 150, 100);
  ASSERT_TRUE(layout.is_ok());
  ASSERT_EQ(layout->size(), 2u);
  EXPECT_EQ((*layout)[0].offset_in_stripe, 50u);
  EXPECT_EQ((*layout)[0].length, 50u);
  EXPECT_EQ((*layout)[1].offset_in_stripe, 0u);
  EXPECT_EQ((*layout)[1].length, 50u);
}

TEST(StripedFs, WritePatternMatchesExplicit) {
  // Partial stripes generate [lo, hi) of a stripe. Over these ranges lo and
  // hi take every residue mod 8; one range stays inside a single stripe.
  struct Range { Bytes offset, length; };
  StripedFs fs(4, 128);
  for (const Range r : {Range{50, 1000}, Range{1, 1022}, Range{515, 6},
                        Range{1030, 1000}, Range{2565, 1000}, Range{7, 3067},
                        Range{1538, 2001}, Range{8, 4000}}) {
    FileId f = fs.create(std::to_string(r.offset)).value();
    ASSERT_TRUE(fs.write_pattern(f, r.offset, r.length, 9).is_ok());
    std::vector<std::byte> out(r.length);
    ASSERT_TRUE(fs.read(f, r.offset, out).is_ok());
    for (std::size_t i = 0; i < r.length; ++i) {
      ASSERT_EQ(out[i], blob::pattern_byte(9, r.offset + i))
          << r.offset << "+" << r.length << " @" << i;
    }
  }
}

TEST(StripedFs, StorageEvenlyDistributed) {
  StripedFs fs(5, 256);
  FileId f = fs.create("big").value();
  ASSERT_TRUE(fs.write_pattern(f, 0, 256 * 100, 1).is_ok());
  for (ServerId s = 0; s < 5; ++s) {
    EXPECT_EQ(fs.stored_bytes_on(s), 256u * 20);
  }
  EXPECT_EQ(fs.stored_bytes(), 256u * 100);
}

TEST(StripedFs, UnknownFileErrors) {
  StripedFs fs(2, 100);
  std::vector<std::byte> buf(10);
  EXPECT_EQ(fs.read(99, 0, buf).code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.write(99, 0, buf).code(), StatusCode::kNotFound);
  EXPECT_FALSE(fs.stat(99).is_ok());
  EXPECT_FALSE(fs.layout(99, 0, 10).is_ok());
}

}  // namespace
}  // namespace vmstorm::dfs
