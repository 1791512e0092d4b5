#include "mirror/virtual_disk.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "blob/chunk.hpp"
#include "common/rng.hpp"

namespace vmstorm::mirror {
namespace {

using blob::BlobId;
using blob::BlobStore;
using blob::pattern_byte;

constexpr Bytes kImage = 64_KiB;
constexpr Bytes kChunk = 4_KiB;
constexpr std::uint64_t kSeed = 77;

/// `n` bytes of the file at `path` from `offset`, read with pread(2).
std::vector<std::byte> file_bytes(const std::string& path, Bytes offset,
                                  Bytes n) {
  std::vector<std::byte> out(n);
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0) << path;
  EXPECT_EQ(::pread(fd, out.data(), n, static_cast<off_t>(offset)),
            static_cast<ssize_t>(n));
  ::close(fd);
  return out;
}

std::vector<std::byte> image_bytes(Bytes offset, Bytes n) {
  std::vector<std::byte> out(n);
  for (Bytes i = 0; i < n; ++i) out[i] = pattern_byte(kSeed, offset + i);
  return out;
}

struct Fixture {
  BlobStore store{blob::StoreConfig{.providers = 4}};
  BlobId image = 0;
  std::vector<std::string> paths;  ///< images handed out, removed at the end

  Fixture() {
    image = store.create(kImage, kChunk).value();
    EXPECT_TRUE(store.write_pattern(image, 0, 0, kImage, kSeed).is_ok());
  }
  ~Fixture() {
    for (const std::string& path : paths) {
      std::remove(path.c_str());
      std::remove((path + ".meta").c_str());
    }
  }

  /// A mirror path no other test in this process has used, so no test
  /// reopens another's image or restores its sidecar.
  std::string fresh_path() {
    static int counter = 0;
    paths.push_back(::testing::TempDir() + "/mirror_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++) + ".img");
    return paths.back();
  }

  std::unique_ptr<VirtualDisk> open_disk(const std::string& path,
                                         bool s1 = true, bool s2 = true) {
    VirtualDiskOptions opts;
    opts.local_path = path;
    opts.prefetch_whole_chunks = s1;
    opts.single_region_per_chunk = s2;
    auto r = VirtualDisk::open(store, image, 1, opts);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return std::move(r).value();
  }
};

TEST(VirtualDisk, ReadsMatchImageContent) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> out(1000);
  ASSERT_TRUE(disk->pread(5000, out).is_ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], pattern_byte(kSeed, 5000 + i)) << i;
  }
}

TEST(VirtualDisk, FetchesOnlyTouchedChunks) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> out(100);
  ASSERT_TRUE(disk->pread(0, out).is_ok());
  // Strategy 1: exactly one whole chunk fetched for a small read.
  EXPECT_EQ(disk->stats().remote_bytes_fetched, kChunk);
  ASSERT_TRUE(disk->pread(50, out).is_ok());  // same chunk: no refetch
  EXPECT_EQ(disk->stats().remote_bytes_fetched, kChunk);
  ASSERT_TRUE(disk->pread(kChunk, out).is_ok());  // next chunk
  EXPECT_EQ(disk->stats().remote_bytes_fetched, 2 * kChunk);
}

TEST(VirtualDisk, ReadYourWrites) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> data(3000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = pattern_byte(9, i);
  ASSERT_TRUE(disk->pwrite(10000, data).is_ok());
  std::vector<std::byte> out(3000);
  ASSERT_TRUE(disk->pread(10000, out).is_ok());
  EXPECT_EQ(out, data);
  // Reading around the write still sees base image content.
  std::vector<std::byte> before(100);
  ASSERT_TRUE(disk->pread(9900, before).is_ok());
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(before[i], pattern_byte(kSeed, 9900 + i));
  }
}

TEST(VirtualDisk, WritesNeverContactRepositoryWhenAligned) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> chunk_data(kChunk, std::byte{5});
  ASSERT_TRUE(disk->pwrite(2 * kChunk, chunk_data).is_ok());
  EXPECT_EQ(disk->stats().remote_bytes_fetched, 0u);
}

TEST(VirtualDisk, GapFillingWriteFetchesGapOnly) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> small(16, std::byte{1});
  ASSERT_TRUE(disk->pwrite(0, small).is_ok());       // [0,16) of chunk 0
  ASSERT_TRUE(disk->pwrite(100, small).is_ok());     // gap [16,100)
  EXPECT_EQ(disk->stats().remote_bytes_fetched, 84u);
  EXPECT_TRUE(disk->local_state().single_region_invariant_holds());
}

TEST(VirtualDisk, CommitPublishesStandaloneSnapshot) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> data(2000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = pattern_byte(3, i);
  ASSERT_TRUE(disk->pwrite(1000, data).is_ok());

  auto v = disk->commit();
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(*v, 2u);  // image was at v1

  // The snapshot is a first-class raw image, readable through the plain
  // store API with no knowledge of the mirroring module.
  std::vector<std::byte> out(kImage);
  ASSERT_TRUE(fx.store.read(fx.image, 2, 0, out).is_ok());
  for (Bytes i = 0; i < kImage; ++i) {
    std::byte want = (i >= 1000 && i < 3000) ? pattern_byte(3, i - 1000)
                                             : pattern_byte(kSeed, i);
    ASSERT_EQ(out[i], want) << i;
  }
  // And the original snapshot (v1) is untouched (shadowing).
  ASSERT_TRUE(fx.store.read(fx.image, 1, 0, out).is_ok());
  for (Bytes i = 900; i < 3100; ++i) ASSERT_EQ(out[i], pattern_byte(kSeed, i));
}

TEST(VirtualDisk, CommitWithoutChangesIsNoop) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  auto v = disk->commit();
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(*v, 1u);
  EXPECT_EQ(disk->stats().commits, 0u);
}

TEST(VirtualDisk, CloneThenCommitLeavesOriginalUntouched) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> data(100, std::byte{0xee});
  ASSERT_TRUE(disk->pwrite(0, data).is_ok());

  auto cloned = disk->clone();
  ASSERT_TRUE(cloned.is_ok());
  EXPECT_NE(*cloned, fx.image);
  auto v = disk->commit();
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(disk->target_blob(), *cloned);

  // Original image: unchanged at every version.
  std::vector<std::byte> out(100);
  ASSERT_TRUE(fx.store.read(fx.image, 1, 0, out).is_ok());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], pattern_byte(kSeed, i));
  // Clone: shows the write, shares everything else.
  ASSERT_TRUE(fx.store.read(*cloned, *v, 0, out).is_ok());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], std::byte{0xee});
  std::vector<std::byte> far(100);
  ASSERT_TRUE(fx.store.read(*cloned, *v, 32000, far).is_ok());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(far[i], pattern_byte(kSeed, 32000 + i));
  }
}

TEST(VirtualDisk, SuccessiveCommitsShareUnmodifiedContent) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  const Bytes stored0 = fx.store.stored_bytes();
  std::vector<std::byte> data(kChunk, std::byte{1});
  ASSERT_TRUE(disk->pwrite(0, data).is_ok());
  ASSERT_TRUE(disk->commit().is_ok());
  ASSERT_TRUE(disk->pwrite(kChunk, data).is_ok());
  ASSERT_TRUE(disk->commit().is_ok());
  // Two commits of one chunk each: exactly two chunks of new storage.
  EXPECT_EQ(fx.store.stored_bytes(), stored0 + 2 * kChunk);
}

TEST(VirtualDisk, LocalStatePersistsAcrossReopen) {
  Fixture fx;
  const std::string path = fx.fresh_path();
  {
    auto disk = fx.open_disk(path);
    std::vector<std::byte> data(1000, std::byte{0xaa});
    ASSERT_TRUE(disk->pwrite(500, data).is_ok());
    std::vector<std::byte> out(100);
    ASSERT_TRUE(disk->pread(20000, out).is_ok());
    ASSERT_TRUE(disk->close().is_ok());
  }
  {
    auto disk = fx.open_disk(path);
    // Restored: previously-written data readable without the repository
    // being consulted for those chunks, and still marked dirty.
    const Bytes fetched_before = disk->stats().remote_bytes_fetched;
    std::vector<std::byte> out(1000);
    ASSERT_TRUE(disk->pread(500, out).is_ok());
    EXPECT_EQ(disk->stats().remote_bytes_fetched, fetched_before);
    for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(out[i], std::byte{0xaa});
    EXPECT_FALSE(disk->local_state().dirty_chunks().empty());
  }
}

TEST(VirtualDisk, SidecarWithoutItsMirrorFileIsRejected) {
  Fixture fx;
  for (const bool deleted : {true, false}) {
    SCOPED_TRACE(deleted ? "mirror file deleted" : "mirror file truncated");
    const std::string path = fx.fresh_path();
    {
      auto disk = fx.open_disk(path);
      std::vector<std::byte> out(100);
      ASSERT_TRUE(disk->pread(0, out).is_ok());
      std::vector<std::byte> data(100, std::byte{0xaa});
      ASSERT_TRUE(disk->pwrite(kImage - kChunk, data).is_ok());
      ASSERT_TRUE(disk->close().is_ok());
    }
    if (deleted) {
      ASSERT_EQ(std::remove(path.c_str()), 0);
    } else {
      ASSERT_EQ(::truncate(path.c_str(), kImage / 2), 0);
    }
    VirtualDiskOptions opts;
    opts.local_path = path;
    auto r = VirtualDisk::open(fx.store, fx.image, 1, opts);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
        << r.status().to_string();
    // Nothing was created or resized in the sidecar's name.
    struct stat st {};
    if (deleted) {
      EXPECT_NE(::stat(path.c_str(), &st), 0);
    } else {
      ASSERT_EQ(::stat(path.c_str(), &st), 0);
      EXPECT_EQ(static_cast<Bytes>(st.st_size), kImage / 2);
    }
  }
}

TEST(VirtualDisk, FetchedChunkReachesTheFile) {
  Fixture fx;
  const std::string path = fx.fresh_path();
  const Bytes chunk = 3 * kChunk;
  {
    auto disk = fx.open_disk(path);
    std::vector<std::byte> out(100);
    ASSERT_TRUE(disk->pread(chunk + 50, out).is_ok());
    ASSERT_EQ(disk->stats().remote_fetches, 1u);
    ASSERT_TRUE(disk->close().is_ok());
  }
  // The whole fetched chunk is in the file, not only the bytes read.
  EXPECT_EQ(file_bytes(path, chunk, kChunk), image_bytes(chunk, kChunk));
  // A reopen restores it as mirrored and serves it from the file.
  auto disk = fx.open_disk(path);
  std::vector<std::byte> out(kChunk);
  ASSERT_TRUE(disk->pread(chunk, out).is_ok());
  EXPECT_EQ(disk->stats().remote_fetches, 0u);
  EXPECT_EQ(out, image_bytes(chunk, kChunk));
}

TEST(VirtualDisk, GuestWriteIntoFilledChunkIsCoherent) {
  Fixture fx;
  const std::string path = fx.fresh_path();
  auto disk = fx.open_disk(path);
  const Bytes chunk = 2 * kChunk;
  std::vector<std::byte> probe(10);
  ASSERT_TRUE(disk->pread(chunk, probe).is_ok());  // fills the chunk
  std::vector<std::byte> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = pattern_byte(4, i);
  ASSERT_TRUE(disk->pwrite(chunk + 1000, data).is_ok());
  EXPECT_EQ(disk->stats().remote_fetches, 1u);

  std::vector<std::byte> want = image_bytes(chunk, kChunk);
  std::copy(data.begin(), data.end(), want.begin() + 1000);
  std::vector<std::byte> out(kChunk);
  ASSERT_TRUE(disk->pread(chunk, out).is_ok());
  EXPECT_EQ(out, want);
  EXPECT_EQ(file_bytes(path, chunk, kChunk), want);
  auto v = disk->commit();
  ASSERT_TRUE(v.is_ok());
  ASSERT_TRUE(fx.store.read(fx.image, *v, chunk, out).is_ok());
  EXPECT_EQ(out, want);
  EXPECT_EQ(disk->stats().remote_fetches, 1u);
}

TEST(VirtualDisk, ChunkLongerThanStagingBufferFillsWhole) {
  // A 3 MiB chunk passes through the 1 MiB staging buffer in three pieces.
  BlobStore store{blob::StoreConfig{.providers = 2}};
  const Bytes image = 4_MiB, chunk = 3_MiB;
  const BlobId b = store.create(image, chunk).value();
  ASSERT_TRUE(store.write_pattern(b, 0, 0, image, kSeed).is_ok());
  Fixture fx;
  VirtualDiskOptions opts;
  opts.local_path = fx.fresh_path();
  auto disk = VirtualDisk::open(store, b, 1, opts).value();
  std::vector<std::byte> out(10);
  ASSERT_TRUE(disk->pread(chunk - 10, out).is_ok());
  EXPECT_EQ(disk->stats().remote_fetches, 1u);
  EXPECT_EQ(disk->stats().remote_bytes_fetched, chunk);
  EXPECT_EQ(out, image_bytes(chunk - 10, 10));
  EXPECT_EQ(file_bytes(opts.local_path, 0, chunk), image_bytes(0, chunk));
}

TEST(VirtualDisk, BoundsChecked) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> buf(100);
  EXPECT_EQ(disk->pread(kImage - 50, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk->pwrite(kImage - 50, buf).code(), StatusCode::kOutOfRange);
  // offset + size wraps past 2^64 to 90, inside the image: still rejected,
  // or the copy would address memory outside the mirror mapping.
  EXPECT_EQ(disk->pread(~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk->pwrite(~Bytes{0} - 9, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk->stats().remote_fetches, 0u);
}

TEST(VirtualDisk, RandomOpsMatchReferenceModel) {
  Fixture fx;
  auto disk = fx.open_disk(fx.fresh_path());
  std::vector<std::byte> model(kImage);
  for (Bytes i = 0; i < kImage; ++i) model[i] = pattern_byte(kSeed, i);
  Rng rng(5);
  for (int step = 0; step < 300; ++step) {
    Bytes off = rng.uniform_u64(kImage - 1);
    Bytes len = 1 + rng.uniform_u64(std::min<Bytes>(kImage - off, 9000) - 1);
    if (rng.bernoulli(0.4)) {
      std::vector<std::byte> data(len);
      for (Bytes i = 0; i < len; ++i) data[i] = pattern_byte(step, i);
      ASSERT_TRUE(disk->pwrite(off, data).is_ok());
      std::copy(data.begin(), data.end(), model.begin() + off);
    } else {
      std::vector<std::byte> out(len);
      ASSERT_TRUE(disk->pread(off, out).is_ok());
      ASSERT_TRUE(std::equal(out.begin(), out.end(), model.begin() + off))
          << "step " << step;
    }
  }
  // Commit, then the published snapshot equals the model exactly.
  auto v = disk->commit();
  ASSERT_TRUE(v.is_ok());
  std::vector<std::byte> snap(kImage);
  ASSERT_TRUE(fx.store.read(disk->target_blob(), *v, 0, snap).is_ok());
  EXPECT_EQ(snap, model);
}

}  // namespace
}  // namespace vmstorm::mirror
