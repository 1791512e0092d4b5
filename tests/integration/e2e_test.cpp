// Cross-module integration tests: the full real-mode stack (blob store ->
// mirroring module -> imgfs -> application data) exercised end to end,
// including failure injection and the §3.2 debugging workflow.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/montecarlo.hpp"
#include "blob/store.hpp"
#include "common/rng.hpp"
#include "imgfs/block_device.hpp"
#include "imgfs/filesystem.hpp"
#include "mirror/virtual_disk.hpp"

namespace vmstorm {
namespace {

// Hands out mirror paths unique within the process and removes each image
// and its sidecar when the test ends.
class EndToEnd : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : paths_) {
      std::remove(path.c_str());
      std::remove((path + ".meta").c_str());
    }
  }

  std::string tmp_path(const std::string& tag) {
    static int counter = 0;
    paths_.push_back(::testing::TempDir() + "/e2e_" + tag + "_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter++) + ".img");
    return paths_.back();
  }

 private:
  std::vector<std::string> paths_;
};

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::string read_file(imgfs::FileSystem& fs, const std::string& name) {
  auto id = fs.lookup(name);
  if (!id.is_ok()) return {};
  auto st = fs.stat(*id).value();
  std::vector<std::byte> buf(st.size);
  EXPECT_TRUE(fs.read(*id, 0, buf).is_ok());
  return std::string(reinterpret_cast<const char*>(buf.data()), buf.size());
}

TEST_F(EndToEnd, GuestFilesystemOverMirroredImage) {
  blob::BlobStore store(blob::StoreConfig{.providers = 4});
  blob::BlobId image = store.create(16_MiB, 256_KiB).value();
  store.write_pattern(image, 0, 0, 16_MiB, 1).check();

  mirror::VirtualDiskOptions opts;
  opts.local_path = tmp_path("guestfs");
  auto disk = mirror::VirtualDisk::open(store, image, 1, opts).value();
  imgfs::MirrorDevice dev(*disk);
  auto fs = imgfs::FileSystem::format(dev).value();

  auto f = fs->create("data.bin").value();
  std::vector<std::byte> payload(100000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = blob::pattern_byte(9, i);
  }
  ASSERT_TRUE(fs->write(f, 0, payload).is_ok());

  // Snapshot the whole image while the FS lives in it.
  disk->clone().check();
  blob::Version v = disk->commit().value();

  // A second VM opens the SNAPSHOT on a different "node" and finds the
  // guest filesystem intact — the snapshot is a standalone raw image.
  mirror::VirtualDiskOptions opts2;
  opts2.local_path = tmp_path("guestfs2");
  auto disk2 =
      mirror::VirtualDisk::open(store, disk->target_blob(), v, opts2).value();
  imgfs::MirrorDevice dev2(*disk2);
  auto fs2 = imgfs::FileSystem::mount(dev2);
  ASSERT_TRUE(fs2.is_ok()) << fs2.status().to_string();
  auto id2 = (*fs2)->lookup("data.bin");
  ASSERT_TRUE(id2.is_ok());
  std::vector<std::byte> got(payload.size());
  ASSERT_TRUE((*fs2)->read(*id2, 0, got).is_ok());
  EXPECT_EQ(got, payload);
}

TEST_F(EndToEnd, DebuggingWorkflowClonesAreIndependent) {
  blob::BlobStore store(blob::StoreConfig{.providers = 4});
  blob::BlobId image = store.create(8_MiB, 256_KiB).value();
  store.write_pattern(image, 0, 0, 8_MiB, 1).check();

  mirror::VirtualDiskOptions opts;
  opts.local_path = tmp_path("dbg");
  auto disk = mirror::VirtualDisk::open(store, image, 1, opts).value();
  imgfs::MirrorDevice dev(*disk);
  auto fs = imgfs::FileSystem::format(dev).value();
  auto conf = fs->create("app.conf").value();
  ASSERT_TRUE(fs->write(conf, 0, to_bytes("threads=0")).is_ok());
  blob::BlobId snap = disk->clone().value();
  blob::Version sv = disk->commit().value();

  // Three independent debugging attempts, each on its own clone.
  std::vector<blob::BlobId> trials;
  for (int attempt = 0; attempt < 3; ++attempt) {
    blob::BlobId trial = store.clone(snap, sv).value();
    mirror::VirtualDiskOptions topts;
    topts.local_path = tmp_path("dbg_try" + std::to_string(attempt));
    auto tdisk = mirror::VirtualDisk::open(store, trial, 0, topts).value();
    imgfs::MirrorDevice tdev(*tdisk);
    auto tfs = imgfs::FileSystem::mount(tdev).value();
    auto id = tfs->lookup("app.conf").value();
    ASSERT_TRUE(tfs->truncate(id, 0).is_ok());
    ASSERT_TRUE(
        tfs->write(id, 0, to_bytes("threads=" + std::to_string(attempt))).is_ok());
    tdisk->commit().check();
    trials.push_back(trial);
  }

  // Every trial sees only its own edit; the snapshot is pristine.
  for (int attempt = 0; attempt < 3; ++attempt) {
    mirror::VirtualDiskOptions vopts;
    vopts.local_path = tmp_path("dbg_verify" + std::to_string(attempt));
    auto vdisk = mirror::VirtualDisk::open(
        store, trials[attempt], store.info(trials[attempt])->latest, vopts).value();
    imgfs::MirrorDevice vdev(*vdisk);
    auto vfs = imgfs::FileSystem::mount(vdev).value();
    EXPECT_EQ(read_file(*vfs, "app.conf"), "threads=" + std::to_string(attempt));
  }
  mirror::VirtualDiskOptions sopts;
  sopts.local_path = tmp_path("dbg_snapver");
  auto sdisk = mirror::VirtualDisk::open(store, snap, sv, sopts).value();
  imgfs::MirrorDevice sdev(*sdisk);
  auto sfs = imgfs::FileSystem::mount(sdev).value();
  EXPECT_EQ(read_file(*sfs, "app.conf"), "threads=0");
}

TEST_F(EndToEnd, ReplicatedStoreSurvivesProviderLossUnderMirror) {
  blob::BlobStore store(blob::StoreConfig{.providers = 4, .replication = 2});
  blob::BlobId image = store.create(4_MiB, 256_KiB).value();
  store.write_pattern(image, 0, 0, 4_MiB, 3).check();

  // Kill the primary replica of every chunk before any mirroring happens.
  auto locs = store.locate(image, 1, ByteRange{0, 4_MiB}).value();
  for (const auto& l : locs) {
    ASSERT_TRUE(store.drop_replica(l.key, l.provider).is_ok());
  }

  mirror::VirtualDiskOptions opts;
  opts.local_path = tmp_path("repl");
  auto disk = mirror::VirtualDisk::open(store, image, 1, opts).value();
  std::vector<std::byte> buf(1_MiB);
  ASSERT_TRUE(disk->pread(1_MiB, buf).is_ok());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], blob::pattern_byte(3, 1_MiB + i)) << i;
  }
}

TEST_F(EndToEnd, ChainOfCommitsReadsBackExactly) {
  // A long history of snapshots on one clone: every version stays intact.
  blob::BlobStore store(blob::StoreConfig{.providers = 4});
  const Bytes size = 2_MiB, chunk = 128_KiB;
  blob::BlobId image = store.create(size, chunk).value();
  store.write_pattern(image, 0, 0, size, 1).check();

  mirror::VirtualDiskOptions opts;
  opts.local_path = tmp_path("chain");
  auto disk = mirror::VirtualDisk::open(store, image, 1, opts).value();
  disk->clone().check();

  Rng rng(11);
  std::vector<std::vector<std::byte>> images;  // reference per version
  std::vector<std::byte> model(size);
  for (Bytes i = 0; i < size; ++i) model[i] = blob::pattern_byte(1, i);

  for (int gen = 0; gen < 8; ++gen) {
    const Bytes off = rng.uniform_u64(size - 64_KiB);
    std::vector<std::byte> patch(1 + rng.uniform_u64(64_KiB - 1));
    for (std::size_t i = 0; i < patch.size(); ++i) {
      patch[i] = blob::pattern_byte(100 + gen, i);
    }
    ASSERT_TRUE(disk->pwrite(off, patch).is_ok());
    std::copy(patch.begin(), patch.end(), model.begin() + off);
    ASSERT_TRUE(disk->commit().is_ok());
    images.push_back(model);
  }
  // Every historical version still reads exactly as it was published.
  for (int gen = 0; gen < 8; ++gen) {
    std::vector<std::byte> got(size);
    ASSERT_TRUE(store.read(disk->target_blob(),
                           static_cast<blob::Version>(gen + 1), 0, got).is_ok());
    ASSERT_EQ(got, images[gen]) << "generation " << gen;
  }
}

TEST_F(EndToEnd, MonteCarloPiOnVirtualCluster) {
  // The π workers save tallies inside mirrored images; a "collector" later
  // reads every snapshot and merges. Validates data flow through the full
  // snapshot path, and that π comes out right.
  blob::BlobStore store(blob::StoreConfig{.providers = 4});
  blob::BlobId image = store.create(4_MiB, 256_KiB).value();
  store.write_pattern(image, 0, 0, 4_MiB, 1).check();

  constexpr int kWorkers = 5;
  std::vector<std::pair<blob::BlobId, blob::Version>> snapshots;
  for (int w = 0; w < kWorkers; ++w) {
    auto tally = apps::sample_pi(60000, 1000 + w);
    mirror::VirtualDiskOptions opts;
    opts.local_path = tmp_path("mc" + std::to_string(w));
    auto disk = mirror::VirtualDisk::open(store, image, 1, opts).value();
    std::vector<std::byte> rec(sizeof(tally));
    std::memcpy(rec.data(), &tally, sizeof(tally));
    ASSERT_TRUE(disk->pwrite(1_MiB, rec).is_ok());
    disk->clone().check();
    blob::Version v = disk->commit().value();
    snapshots.emplace_back(disk->target_blob(), v);
  }

  apps::PiTally total;
  for (auto& [blob_id, version] : snapshots) {
    std::vector<std::byte> rec(sizeof(apps::PiTally));
    ASSERT_TRUE(store.read(blob_id, version, 1_MiB, rec).is_ok());
    apps::PiTally t;
    std::memcpy(&t, rec.data(), sizeof(t));
    total.add(t);
  }
  EXPECT_EQ(total.samples, 60000u * kWorkers);
  EXPECT_NEAR(total.estimate(), 3.14159, 0.03);
}

}  // namespace
}  // namespace vmstorm
