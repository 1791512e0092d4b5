#include "common/byte_codec.hpp"

#include <gtest/gtest.h>

#include <string>

namespace vmstorm {
namespace {

TEST(ByteCodec, FieldsAreLittleEndian) {
  ByteWriter w;
  w.u32(0x04030201u);
  w.u64(0x0c0b0a0908070605ull);
  w.bytes(std::as_bytes(std::span("xy", 2)));
  const std::string want("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"
                         "xy",
                         14);
  EXPECT_EQ(w.str(), want);

  ByteReader r(want);
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::string_view tail;
  ASSERT_TRUE(r.u32(&a));
  ASSERT_TRUE(r.u64(&b));
  ASSERT_TRUE(r.bytes(2, &tail));
  EXPECT_EQ(a, 0x04030201u);
  EXPECT_EQ(b, 0x0c0b0a0908070605ull);
  EXPECT_EQ(tail, "xy");
  EXPECT_EQ(r.remaining(), 0u);

  // Every bit of the widest field survives, high bytes included.
  ByteWriter hi;
  hi.u64(~std::uint64_t{0} - 1);
  EXPECT_EQ(hi.str(), std::string("\xfe\xff\xff\xff\xff\xff\xff\xff", 8));
}

TEST(ByteCodec, ReadPastEndFailsWithoutAdvancing) {
  const std::string six("\x01\x00\x00\x00\x02\x00", 6);
  ByteReader r(six);
  std::uint64_t wide = 7;
  EXPECT_FALSE(r.u64(&wide));
  EXPECT_EQ(wide, 7u);
  EXPECT_EQ(r.remaining(), 6u);

  std::uint32_t word = 0;
  ASSERT_TRUE(r.u32(&word));
  EXPECT_EQ(word, 1u);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.u32(&word));
  EXPECT_EQ(word, 1u);
  std::string_view rest;
  EXPECT_FALSE(r.bytes(3, &rest));
  EXPECT_EQ(r.remaining(), 2u);
  ASSERT_TRUE(r.bytes(2, &rest));
  EXPECT_EQ(rest, std::string_view("\x02\x00", 2));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.bytes(~std::size_t{0}, &rest));
}

}  // namespace
}  // namespace vmstorm
