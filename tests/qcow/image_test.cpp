#include "qcow/image.hpp"

#include <gtest/gtest.h>

#include "blob/chunk.hpp"
#include "common/byte_codec.hpp"
#include "common/rng.hpp"

namespace vmstorm::qcow {
namespace {

std::vector<std::byte> make_bytes(std::size_t n, std::uint64_t seed,
                                  std::uint64_t bias = 0) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = blob::pattern_byte(seed, bias + i);
  return v;
}

std::unique_ptr<MemFile> raw_backing(Bytes size, std::uint64_t seed) {
  return std::make_unique<MemFile>(make_bytes(size, seed));
}

/// The bytes of an image file with a hand-written 64-byte header (no
/// backing file), followed by `l1` as the L1 table.
std::vector<std::byte> image_bytes(Bytes virtual_size,
                                   std::uint32_t cluster_bits,
                                   std::uint32_t l1_entries,
                                   std::uint64_t l1_offset,
                                   std::vector<std::uint64_t> l1) {
  ByteWriter w;
  w.u32(kQcowMagic);
  w.u32(kQcowVersion);
  w.u64(virtual_size);
  w.u32(cluster_bits);
  w.u32(l1_entries);
  w.u64(l1_offset);
  w.u64(0);  // no backing file
  std::string bytes = std::move(w).str();
  bytes.resize(64);
  ByteWriter table;
  for (std::uint64_t e : l1) table.u64(e);
  bytes += table.str();
  const auto raw = std::as_bytes(std::span(bytes));
  return {raw.begin(), raw.end()};
}

TEST(QcowImage, CreateValidatesArguments) {
  EXPECT_FALSE(Image::create(std::make_unique<MemFile>(), 0, 512).is_ok());
  EXPECT_FALSE(Image::create(std::make_unique<MemFile>(), 1024, 0).is_ok());
  EXPECT_FALSE(Image::create(std::make_unique<MemFile>(), 1024, 500).is_ok());
  auto small_backing = raw_backing(100, 1);
  EXPECT_FALSE(
      Image::create(std::make_unique<MemFile>(), 1024, 512, small_backing.get())
          .is_ok());
  // A cluster holds at least one 8-byte L2 entry: 4 bytes would give an
  // L2 table of no entries (and a division by zero).
  EXPECT_EQ(Image::create(std::make_unique<MemFile>(), 1_MiB, 4)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(Image::create(std::make_unique<MemFile>(), 1_MiB, 8).is_ok());
}

TEST(QcowImage, FreshImageReadsZeros) {
  auto img = Image::create(std::make_unique<MemFile>(), 4096, 512).value();
  std::vector<std::byte> out(1000);
  ASSERT_TRUE(img->read(100, out).is_ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(img->stats().allocated_clusters, 0u);
}

TEST(QcowImage, WriteReadRoundTrip) {
  auto img = Image::create(std::make_unique<MemFile>(), 4096, 512).value();
  auto data = make_bytes(1200, 3);
  ASSERT_TRUE(img->write(700, data).is_ok());
  std::vector<std::byte> out(1200);
  ASSERT_TRUE(img->read(700, out).is_ok());
  EXPECT_EQ(out, data);
  // Clusters 1..3 got allocated (700..1900 with 512 B clusters).
  EXPECT_EQ(img->stats().allocated_clusters, 3u);
  EXPECT_FALSE(img->cluster_allocated(0));
  EXPECT_TRUE(img->cluster_allocated(1));
  EXPECT_TRUE(img->cluster_allocated(3));
}

TEST(QcowImage, BackingReadThrough) {
  auto backing = raw_backing(4096, 42);
  auto img =
      Image::create(std::make_unique<MemFile>(), 4096, 512, backing.get())
          .value();
  std::vector<std::byte> out(1000);
  ASSERT_TRUE(img->read(500, out).is_ok());
  EXPECT_EQ(out, make_bytes(1000, 42, 500));
  // No allocation from reads; request-granularity backing traffic.
  EXPECT_EQ(img->stats().allocated_clusters, 0u);
  EXPECT_EQ(img->stats().backing_bytes_read, 1000u);
}

TEST(QcowImage, CopyOnWritePreservesBackingContent) {
  auto backing = raw_backing(4096, 42);
  auto img =
      Image::create(std::make_unique<MemFile>(), 4096, 512, backing.get())
          .value();
  // Small write in the middle of cluster 2.
  auto patch = make_bytes(10, 7);
  ASSERT_TRUE(img->write(1100, patch).is_ok());
  EXPECT_EQ(img->stats().cow_copies, 1u);
  EXPECT_EQ(img->stats().backing_bytes_read, 512u);  // full-cluster copy

  // The rest of cluster 2 still shows backing content; the patch shows.
  std::vector<std::byte> out(512);
  ASSERT_TRUE(img->read(1024, out).is_ok());
  for (std::size_t i = 0; i < 512; ++i) {
    std::byte want = (i >= 76 && i < 86) ? blob::pattern_byte(7, i - 76)
                                         : blob::pattern_byte(42, 1024 + i);
    ASSERT_EQ(out[i], want) << i;
  }
  // Backing file itself untouched.
  EXPECT_EQ(backing->data(), make_bytes(4096, 42));
}

TEST(QcowImage, SecondWriteToClusterNoCow) {
  auto backing = raw_backing(4096, 42);
  auto img =
      Image::create(std::make_unique<MemFile>(), 4096, 512, backing.get())
          .value();
  ASSERT_TRUE(img->write(1100, make_bytes(10, 7)).is_ok());
  ASSERT_TRUE(img->write(1200, make_bytes(10, 8)).is_ok());
  EXPECT_EQ(img->stats().cow_copies, 1u);
}

TEST(QcowImage, BoundsChecked) {
  auto img = Image::create(std::make_unique<MemFile>(), 1024, 512).value();
  std::vector<std::byte> buf(100);
  EXPECT_EQ(img->read(1000, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(img->write(1000, buf).code(), StatusCode::kOutOfRange);
  // offset + size wraps past 2^64 to 90, inside the image: still rejected.
  EXPECT_EQ(img->read(~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(img->write(~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
}

TEST(MemFile, BoundsChecked) {
  MemFile f(std::vector<std::byte>(1024));
  std::vector<std::byte> buf(100);
  EXPECT_EQ(f.pread(1000, buf).code(), StatusCode::kOutOfRange);
  // offset + size wraps past 2^64 to 90, inside the file: still rejected,
  // or the copy would read outside the buffer.
  EXPECT_EQ(f.pread(~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
  // A write ending past 2^64 cannot grow the file to a wrapped size.
  EXPECT_EQ(f.pwrite(~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.size(), 1024u);
}

TEST(QcowImage, PersistsAcrossReopen) {
  auto backing = raw_backing(8192, 42);
  auto file = std::make_unique<MemFile>();
  MemFile* raw = file.get();
  std::vector<std::byte> persisted;
  {
    auto img = Image::create(std::move(file), 8192, 512, backing.get()).value();
    ASSERT_TRUE(img->write(1000, make_bytes(2000, 9)).is_ok());
    persisted = raw->data();  // copy before the image (and file) go away
  }
  auto reopened =
      Image::open(std::make_unique<MemFile>(persisted), backing.get());
  ASSERT_TRUE(reopened.is_ok());
  auto& img = *reopened;
  EXPECT_EQ(img->virtual_size(), 8192u);
  EXPECT_EQ(img->cluster_size(), 512u);
  std::vector<std::byte> out(2000);
  ASSERT_TRUE(img->read(1000, out).is_ok());
  EXPECT_EQ(out, make_bytes(2000, 9));
  // Untouched regions still read from backing.
  std::vector<std::byte> head(100);
  ASSERT_TRUE(img->read(0, head).is_ok());
  EXPECT_EQ(head, make_bytes(100, 42));
}

TEST(QcowImage, OpenRejectsGarbageAndMismatchedBacking) {
  auto garbage = std::make_unique<MemFile>(std::vector<std::byte>(128));
  EXPECT_FALSE(Image::open(std::move(garbage)).is_ok());

  auto backing = raw_backing(4096, 1);
  auto file = std::make_unique<MemFile>();
  MemFile* raw = file.get();
  std::vector<std::byte> persisted;
  {
    auto img = Image::create(std::move(file), 4096, 512, backing.get()).value();
    persisted = raw->data();
  }
  // Created with backing, opened without.
  EXPECT_FALSE(Image::open(std::make_unique<MemFile>(persisted)).is_ok());

  // Headers whose fields would size or shift past what the file holds are
  // CORRUPTION, checked before anything is allocated. With 512-byte
  // clusters (cluster_bits 9) an L1 entry maps 64 clusters, 32 KiB.
  constexpr Bytes kL1Span = 64 * 512;
  ASSERT_TRUE(Image::open(std::make_unique<MemFile>(
                              image_bytes(kL1Span, 9, 1, 64, {0})))
                  .is_ok());
  const std::pair<const char*, std::vector<std::byte>> bad[] = {
      {"2^32 - 1 L1 entries in a 64-byte file",
       image_bytes(0xffffffffull * kL1Span, 9, 0xffffffffu, 64, {})},
      {"L1 table past the end", image_bytes(2 * kL1Span, 9, 2, 64, {0})},
      {"L1 offset past the end", image_bytes(kL1Span, 9, 1, 1u << 20, {0})},
      {"L1 table shorter than the virtual size",
       image_bytes(2 * kL1Span, 9, 1, 64, {0})},
      {"cluster_bits 64", image_bytes(kL1Span, 64, 1, 64, {0})},
      {"cluster_bits 2", image_bytes(kL1Span, 2, 1, 64, {0})},
      {"L2 table past the end", image_bytes(kL1Span, 9, 1, 64, {64})},
  };
  for (const auto& [what, bytes] : bad) {
    const Status st = Image::open(std::make_unique<MemFile>(bytes)).status();
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << what << ": " << st.to_string();
  }
}

TEST(QcowImage, HostFileGrowsOnlyWithAllocation) {
  auto backing = raw_backing(1_MiB, 1);
  auto img =
      Image::create(std::make_unique<MemFile>(), 1_MiB, 4096, backing.get())
          .value();
  const Bytes empty_size = img->host_file_size();
  std::vector<std::byte> big(256_KiB);
  ASSERT_TRUE(img->read(0, big).is_ok());
  EXPECT_EQ(img->host_file_size(), empty_size);  // reads allocate nothing
  ASSERT_TRUE(img->write(0, make_bytes(8192, 2)).is_ok());
  EXPECT_GE(img->host_file_size(), empty_size + 2 * 4096);
  EXPECT_LT(img->host_file_size(), empty_size + 4 * 4096 + 4096);
}

TEST(QcowImage, RandomOpsMatchReferenceModel) {
  const Bytes kSize = 64_KiB;
  auto backing = raw_backing(kSize, 5);
  auto img =
      Image::create(std::make_unique<MemFile>(), kSize, 1024, backing.get())
          .value();
  std::vector<std::byte> model = make_bytes(kSize, 5);
  Rng rng(99);
  for (int step = 0; step < 400; ++step) {
    const Bytes off = rng.uniform_u64(kSize - 1);
    const Bytes len = 1 + rng.uniform_u64(std::min<Bytes>(kSize - off, 3000) - 1);
    if (rng.bernoulli(0.5)) {
      auto data = make_bytes(len, 1000 + step);
      ASSERT_TRUE(img->write(off, data).is_ok());
      std::copy(data.begin(), data.end(), model.begin() + off);
    } else {
      std::vector<std::byte> out(len);
      ASSERT_TRUE(img->read(off, out).is_ok());
      ASSERT_TRUE(std::equal(out.begin(), out.end(), model.begin() + off))
          << "step " << step;
    }
  }
}

}  // namespace
}  // namespace vmstorm::qcow
