#include "imgfs/filesystem.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <span>
#include <string>

#include "blob/chunk.hpp"
#include "common/byte_codec.hpp"
#include "common/rng.hpp"

namespace vmstorm::imgfs {
namespace {

std::vector<std::byte> make_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = blob::pattern_byte(seed, i);
  return v;
}

FsOptions small_opts() {
  FsOptions o;
  o.block_size = 512;
  o.max_inodes = 32;
  return o;
}

TEST(ImgFs, FormatAndStats) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts());
  ASSERT_TRUE(fs.is_ok()) << fs.status().to_string();
  auto st = (*fs)->stats();
  EXPECT_EQ(st.inodes_total, 32u);
  EXPECT_EQ(st.inodes_free, 32u);
  EXPECT_GT(st.blocks_total, 1900u);
  EXPECT_EQ(st.blocks_free, st.blocks_total);
}

TEST(ImgFs, FormatRejectsTinyDevice) {
  MemDevice dev(1024);
  EXPECT_FALSE(FileSystem::format(dev, small_opts()).is_ok());
}

TEST(ImgFs, CreateLookupRemove) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  auto id = fs->create("hello.txt");
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(fs->lookup("hello.txt").value(), *id);
  EXPECT_EQ(fs->create("hello.txt").status().code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(fs->remove("hello.txt").is_ok());
  EXPECT_FALSE(fs->lookup("hello.txt").is_ok());
  EXPECT_EQ(fs->remove("hello.txt").code(), StatusCode::kNotFound);
}

TEST(ImgFs, NameValidation) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  EXPECT_FALSE(fs->create("").is_ok());
  EXPECT_FALSE(fs->create(std::string(100, 'x')).is_ok());
  EXPECT_TRUE(fs->create(std::string(FileSystem::kMaxName, 'y')).is_ok());
}

TEST(ImgFs, WriteReadRoundTrip) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  InodeId f = fs->create("data").value();
  auto data = make_bytes(5000, 3);
  ASSERT_TRUE(fs->write(f, 0, data).is_ok());
  EXPECT_EQ(fs->stat(f)->size, 5000u);
  std::vector<std::byte> out(5000);
  ASSERT_TRUE(fs->read(f, 0, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(ImgFs, OverwriteMiddle) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  InodeId f = fs->create("data").value();
  ASSERT_TRUE(fs->write(f, 0, make_bytes(4000, 1)).is_ok());
  ASSERT_TRUE(fs->write(f, 1000, make_bytes(500, 2)).is_ok());
  std::vector<std::byte> out(4000);
  ASSERT_TRUE(fs->read(f, 0, out).is_ok());
  for (std::size_t i = 0; i < 4000; ++i) {
    std::byte want = (i >= 1000 && i < 1500) ? blob::pattern_byte(2, i - 1000)
                                             : blob::pattern_byte(1, i);
    ASSERT_EQ(out[i], want) << i;
  }
  EXPECT_EQ(fs->stat(f)->size, 4000u);
}

TEST(ImgFs, SparseGrowthZeroFills) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  InodeId f = fs->create("log").value();
  ASSERT_TRUE(fs->write(f, 0, make_bytes(100, 1)).is_ok());
  ASSERT_TRUE(fs->write(f, 3000, make_bytes(100, 2)).is_ok());
  std::vector<std::byte> gap(2900);
  ASSERT_TRUE(fs->read(f, 100, gap).is_ok());
  for (std::byte b : gap) ASSERT_EQ(b, std::byte{0});
}

TEST(ImgFs, ReadPastEofFails) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  InodeId f = fs->create("x").value();
  ASSERT_TRUE(fs->write(f, 0, make_bytes(100, 1)).is_ok());
  std::vector<std::byte> out(200);
  EXPECT_EQ(fs->read(f, 0, out).code(), StatusCode::kOutOfRange);
  // offset + size wraps past 2^64 to 90, inside the file: still rejected,
  // and a write there cannot grow the file to a wrapped size.
  const auto buf = make_bytes(100, 2);
  EXPECT_EQ(fs->read(f, ~Bytes{0} - 9, std::span(out).first(100)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fs->write(f, ~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
  // Growing to just below 2^64 needs more blocks than the device has; the
  // block count must not wrap to a small number that looks already
  // allocated, and the file keeps its size.
  EXPECT_EQ(fs->write(f, ~Bytes{0} - 99, std::span(buf).first(50)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(fs->stat(f)->size, 100u);
  EXPECT_EQ(fs->truncate(f, ~Bytes{0} - 5).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(fs->stat(f)->size, 100u);
  EXPECT_TRUE(fs->read(f, 0, std::span(out).first(10)).is_ok());
}

TEST(MemDevice, BoundsChecked) {
  MemDevice dev(1024);
  std::vector<std::byte> buf(100);
  EXPECT_EQ(dev.pread(1000, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.pwrite(1000, buf).code(), StatusCode::kOutOfRange);
  // offset + size wraps past 2^64 to 90, inside the device: still rejected,
  // or the copy would address memory outside the buffer.
  EXPECT_EQ(dev.pread(~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.pwrite(~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
}

TEST(PosixFileDevice, BoundsChecked) {
  const std::string path = ::testing::TempDir() + "/imgfs_posix_bounds_" +
                           std::to_string(::getpid()) + ".img";
  {
    auto dev = PosixFileDevice::open(path, 1024);
    ASSERT_TRUE(dev.is_ok()) << dev.status().to_string();
    std::vector<std::byte> buf(100);
    EXPECT_EQ((*dev)->pread(1000, buf).code(), StatusCode::kOutOfRange);
    EXPECT_EQ((*dev)->pwrite(1000, buf).code(), StatusCode::kOutOfRange);
    // offset + size wraps past 2^64 to 90, inside the file: still rejected
    // as out of range, not passed to the kernel as a negative offset.
    EXPECT_EQ((*dev)->pread(~Bytes{0} - 9, buf).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ((*dev)->pwrite(~Bytes{0} - 9, buf).code(),
              StatusCode::kOutOfRange);
  }
  std::remove(path.c_str());
}

TEST(ImgFs, RemoveFreesBlocks) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  const auto before = fs->stats().blocks_free;
  InodeId f = fs->create("big").value();
  ASSERT_TRUE(fs->write(f, 0, make_bytes(100000, 1)).is_ok());
  EXPECT_LT(fs->stats().blocks_free, before);
  ASSERT_TRUE(fs->remove("big").is_ok());
  EXPECT_EQ(fs->stats().blocks_free, before);
}

TEST(ImgFs, TruncateShrinkAndGrow) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  InodeId f = fs->create("t").value();
  ASSERT_TRUE(fs->write(f, 0, make_bytes(10000, 1)).is_ok());
  const auto mid_free = fs->stats().blocks_free;
  ASSERT_TRUE(fs->truncate(f, 1000).is_ok());
  EXPECT_EQ(fs->stat(f)->size, 1000u);
  EXPECT_GT(fs->stats().blocks_free, mid_free);
  // Grow back: the grown region reads as zeros.
  ASSERT_TRUE(fs->truncate(f, 2000).is_ok());
  std::vector<std::byte> out(1000);
  ASSERT_TRUE(fs->read(f, 1000, out).is_ok());
  for (std::byte b : out) ASSERT_EQ(b, std::byte{0});
  // Original prefix survives.
  ASSERT_TRUE(fs->read(f, 0, out).is_ok());
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(out[i], blob::pattern_byte(1, i));
  }
}

TEST(ImgFs, TruncateToZeroFreesEverything) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  const auto before = fs->stats().blocks_free;
  InodeId f = fs->create("t").value();
  ASSERT_TRUE(fs->write(f, 0, make_bytes(50000, 1)).is_ok());
  ASSERT_TRUE(fs->truncate(f, 0).is_ok());
  EXPECT_EQ(fs->stats().blocks_free, before);
  EXPECT_EQ(fs->stat(f)->size, 0u);
}

TEST(ImgFs, OutOfInodes) {
  MemDevice dev(1_MiB);
  FsOptions o = small_opts();
  o.max_inodes = 2;
  auto fs = FileSystem::format(dev, o).value();
  ASSERT_TRUE(fs->create("a").is_ok());
  ASSERT_TRUE(fs->create("b").is_ok());
  EXPECT_EQ(fs->create("c").status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(fs->remove("a").is_ok());
  EXPECT_TRUE(fs->create("c").is_ok());
}

TEST(ImgFs, OutOfSpace) {
  MemDevice dev(64_KiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  InodeId f = fs->create("big").value();
  std::vector<std::byte> huge(200_KiB, std::byte{1});
  EXPECT_EQ(fs->write(f, 0, huge).code(), StatusCode::kResourceExhausted);
}

TEST(ImgFs, PersistsAcrossMount) {
  MemDevice dev(1_MiB);
  {
    auto fs = FileSystem::format(dev, small_opts()).value();
    InodeId f = fs->create("persist.me").value();
    ASSERT_TRUE(fs->write(f, 0, make_bytes(7777, 5)).is_ok());
    ASSERT_TRUE(fs->create("other").is_ok());
  }
  auto fs = FileSystem::mount(dev);
  ASSERT_TRUE(fs.is_ok()) << fs.status().to_string();
  auto id = (*fs)->lookup("persist.me");
  ASSERT_TRUE(id.is_ok());
  std::vector<std::byte> out(7777);
  ASSERT_TRUE((*fs)->read(*id, 0, out).is_ok());
  EXPECT_EQ(out, make_bytes(7777, 5));
  EXPECT_EQ((*fs)->list().size(), 2u);
  // Free-space accounting also persisted via the bitmap.
  auto stats = (*fs)->stats();
  EXPECT_LT(stats.blocks_free, stats.blocks_total);
}

// A grow that cannot finish gives back every run it took, whether the
// device runs out of blocks or the file runs out of extents, and the
// bitmap on the device agrees after a remount.
TEST(FileSystem, FailedGrowReturnsItsBlocks) {
  MemDevice dev(1_MiB);
  const Bytes bs = small_opts().block_size;
  const Bytes kept = (FileSystem::kMaxExtents - 1) * bs;
  std::uint64_t free_after = 0;
  {
    auto fs = FileSystem::format(dev, small_opts()).value();
    const InodeId a = fs->create("a").value();
    const InodeId b = fs->create("b").value();
    const std::uint64_t free_before = fs->stats().blocks_free;
    // Out of blocks: the write needs about twice the device.
    EXPECT_EQ(fs->write(a, 2000000, make_bytes(100, 1)).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(fs->stats().blocks_free, free_before);
    EXPECT_EQ(fs->stat(a)->size, 0u);
    ASSERT_TRUE(fs->write(b, 0, make_bytes(100, 2)).is_ok());
    EXPECT_EQ(fs->stats().blocks_free, free_before - 1);

    // Out of extents: a and a spacer c take alternate blocks, so a holds
    // kMaxExtents - 1 one-block extents, and removing c leaves one-block
    // holes. Growing a by 3 blocks takes one hole as its last extent and
    // fails on the next.
    const InodeId c = fs->create("c").value();
    for (Bytes off = 0; off < kept; off += bs) {
      ASSERT_TRUE(fs->write(a, off, make_bytes(bs, 3 + off)).is_ok());
      ASSERT_TRUE(fs->write(c, off, make_bytes(bs, 4)).is_ok());
    }
    ASSERT_TRUE(fs->remove("c").is_ok());
    ASSERT_EQ(fs->stat(a)->extents, FileSystem::kMaxExtents - 1);
    free_after = fs->stats().blocks_free;
    EXPECT_EQ(fs->write(a, kept, make_bytes(3 * bs, 5)).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(fs->stats().blocks_free, free_after);
    EXPECT_EQ(fs->stat(a)->size, kept);
    EXPECT_EQ(fs->stat(a)->extents, FileSystem::kMaxExtents - 1);
  }
  auto fs = FileSystem::mount(dev).value();
  EXPECT_EQ(fs->stats().blocks_free, free_after);
  const InodeId a = fs->lookup("a").value();
  EXPECT_EQ(fs->stat(a)->size, kept);
  for (Bytes off = 0; off < kept; off += bs) {
    std::vector<std::byte> out(bs);
    ASSERT_TRUE(fs->read(a, off, out).is_ok());
    EXPECT_EQ(out, make_bytes(bs, 3 + off)) << off;
  }
  std::vector<std::byte> out(100);
  ASSERT_TRUE(fs->read(fs->lookup("b").value(), 0, out).is_ok());
  EXPECT_EQ(out, make_bytes(100, 2));
}

TEST(ImgFs, MountRejectsUnformattedDevice) {
  MemDevice dev(1_MiB);
  EXPECT_FALSE(FileSystem::mount(dev).is_ok());

  // A formatted device's superblock, nine u64 fields: magic, block size,
  // max inodes, bitmap start and blocks, inode start and blocks, data
  // start, total blocks. Each tampered copy below is CORRUPTION, checked
  // before the fields size anything.
  ASSERT_TRUE(FileSystem::format(dev, small_opts()).is_ok());
  std::vector<std::byte> raw(72);
  ASSERT_TRUE(dev.pread(0, raw).is_ok());
  std::uint64_t good[9];
  ByteReader in(raw);
  for (std::uint64_t& f : good) ASSERT_TRUE(in.u64(&f));
  ASSERT_TRUE(FileSystem::mount(dev).is_ok());
  enum { kBlockSize = 1, kMaxInodes, kBitmapStart, kBitmapBlocks, kInodeStart,
         kInodeBlocks, kDataStart, kTotalBlocks };
  const std::vector<std::pair<const char*, std::vector<std::pair<int, std::uint64_t>>>>
      cases = {
          // total_blocks * block_size wraps to 0; data start past the end.
          {"block size 2^63", {{kBlockSize, std::uint64_t{1} << 63},
                               {kTotalBlocks, 2},
                               {kDataStart, 3}}},
          {"block size below an inode", {{kBlockSize, 128}}},
          {"more blocks than the device", {{kTotalBlocks, good[kTotalBlocks] + 1}}},
          {"data start past the end", {{kDataStart, good[kTotalBlocks]}}},
          {"bitmap over the superblock", {{kBitmapStart, 0}}},
          {"bitmap over the inodes", {{kBitmapBlocks, good[kBitmapBlocks] + 1}}},
          {"inodes over the data", {{kInodeBlocks, good[kInodeBlocks] + 1}}},
          {"bitmap too small", {{kBitmapBlocks, 0}, {kBitmapStart, 1}}},
          {"more inodes than their blocks", {{kMaxInodes, std::uint64_t{1} << 40}}},
      };
  for (const auto& [what, fields] : cases) {
    std::uint64_t sb[9];
    std::copy(std::begin(good), std::end(good), sb);
    for (const auto& [field, value] : fields) sb[field] = value;
    ByteWriter w;
    for (std::uint64_t f : sb) w.u64(f);
    ASSERT_TRUE(dev.pwrite(0, std::as_bytes(std::span(w.str()))).is_ok());
    auto fs = FileSystem::mount(dev);
    EXPECT_EQ(fs.status().code(), StatusCode::kCorruption)
        << what << ": " << fs.status().to_string();
  }
}

TEST(ImgFs, ListReportsFiles) {
  MemDevice dev(1_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  ASSERT_TRUE(fs->create("a").is_ok());
  ASSERT_TRUE(fs->create("b").is_ok());
  auto files = fs->list();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].name, "a");
  EXPECT_EQ(files[1].name, "b");
}

// Property test: a random mix of fs operations matches a simple in-memory
// reference model.
class ImgFsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImgFsPropertyTest, MatchesReferenceModel) {
  MemDevice dev(2_MiB);
  auto fs = FileSystem::format(dev, small_opts()).value();
  std::map<std::string, std::vector<std::byte>> model;
  Rng rng(GetParam());

  for (int step = 0; step < 250; ++step) {
    const std::string name = "f" + std::to_string(rng.uniform_u64(6));
    const double dice = rng.uniform_double();
    if (dice < 0.2) {
      auto r = fs->create(name);
      if (model.count(name)) {
        EXPECT_FALSE(r.is_ok());
      } else if (r.is_ok()) {
        model[name] = {};
      }
    } else if (dice < 0.3) {
      Status st = fs->remove(name);
      EXPECT_EQ(st.is_ok(), model.erase(name) > 0);
    } else if (dice < 0.65) {
      if (!model.count(name)) continue;
      InodeId id = fs->lookup(name).value();
      const Bytes off = rng.uniform_u64(20000);
      const Bytes len = 1 + rng.uniform_u64(8000);
      auto data = make_bytes(len, step);
      Status st = fs->write(id, off, data);
      if (st.is_ok()) {
        auto& m = model[name];
        if (m.size() < off + len) m.resize(off + len, std::byte{0});
        std::copy(data.begin(), data.end(), m.begin() + off);
      }
    } else if (dice < 0.9) {
      if (!model.count(name)) continue;
      InodeId id = fs->lookup(name).value();
      const auto& m = model[name];
      if (m.empty()) continue;
      const Bytes off = rng.uniform_u64(m.size());
      const Bytes len = 1 + rng.uniform_u64(m.size() - off == 0 ? 1 : m.size() - off);
      std::vector<std::byte> out(len);
      if (off + len <= m.size()) {
        ASSERT_TRUE(fs->read(id, off, out).is_ok());
        ASSERT_TRUE(std::equal(out.begin(), out.end(), m.begin() + off))
            << "step " << step;
      } else {
        EXPECT_FALSE(fs->read(id, off, out).is_ok());
      }
    } else {
      if (!model.count(name)) continue;
      InodeId id = fs->lookup(name).value();
      const Bytes newsize = rng.uniform_u64(30000);
      Status st = fs->truncate(id, newsize);
      if (st.is_ok()) model[name].resize(newsize, std::byte{0});
    }
    // Sizes always agree.
    for (const auto& [n, content] : model) {
      auto id = fs->lookup(n);
      ASSERT_TRUE(id.is_ok());
      ASSERT_EQ(fs->stat(*id)->size, content.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImgFsPropertyTest,
                         ::testing::Values(1u, 42u, 2011u, 31337u));

}  // namespace
}  // namespace vmstorm::imgfs
