#include "util/bonnie_arm.hpp"

#include <filesystem>
#include <system_error>

#include "blob/store.hpp"
#include "imgfs/block_device.hpp"
#include "imgfs/filesystem.hpp"
#include "mirror/virtual_disk.hpp"

namespace vmstorm::bench {
namespace {

/// The emulated FUSE crossing, per request (2011-era hardware).
constexpr std::uint64_t kFuseCrossingNanos = 12000;

Result<apps::BonnieResult> bonnie_on(imgfs::BlockDevice& dev,
                                     const apps::BonnieConfig& cfg) {
  VMSTORM_ASSIGN_OR_RETURN(fs, imgfs::FileSystem::format(dev));
  return apps::run_bonnie(*fs, cfg);
}

Result<apps::BonnieResult> run_in(BonnieArm arm, const std::string& dir,
                                  Bytes image_size,
                                  const apps::BonnieConfig& cfg) {
  if (arm == BonnieArm::kLocal) {
    VMSTORM_ASSIGN_OR_RETURN(
        dev, imgfs::PosixFileDevice::open(dir + "/local.img", image_size));
    return bonnie_on(*dev, cfg);
  }
  blob::BlobStore store(blob::StoreConfig{.providers = 4});
  VMSTORM_ASSIGN_OR_RETURN(blob, store.create(image_size, 256_KiB));
  VMSTORM_ASSIGN_OR_RETURN(v, store.write_pattern(blob, 0, 0, image_size, 1));
  mirror::VirtualDiskOptions opts;
  opts.local_path = dir + "/mirror.img";
  VMSTORM_ASSIGN_OR_RETURN(disk,
                           mirror::VirtualDisk::open(store, blob, v, opts));
  imgfs::MirrorDevice mirror_dev(*disk);
  if (arm == BonnieArm::kMirror) return bonnie_on(mirror_dev, cfg);
  imgfs::LatencyDevice fuse_dev(mirror_dev, kFuseCrossingNanos);
  return bonnie_on(fuse_dev, cfg);
}

}  // namespace

Result<apps::BonnieResult> run_bonnie_arm(BonnieArm arm, const std::string& dir,
                                          Bytes image_size,
                                          const apps::BonnieConfig& cfg) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return unavailable("cannot create " + dir + ": " + ec.message());
  Result<apps::BonnieResult> result = run_in(arm, dir, image_size, cfg);
  std::filesystem::remove_all(dir, ec);
  return result;
}

}  // namespace vmstorm::bench
