// One arm of the Bonnie++ figures (§5.4, Figures 6 and 7): a fresh imgfs
// over either a raw local file or the mirroring module, timed with real
// I/O on this host.
#pragma once

#include <string>

#include "apps/bonnie.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm::bench {

enum class BonnieArm {
  /// imgfs over a raw local file accessed with pread/pwrite: the
  /// "hypervisor has direct local access" baseline.
  kLocal,
  /// imgfs over BlobStore -> VirtualDisk -> MirrorDevice: our approach,
  /// linked in, so no user/kernel crossing.
  kMirror,
  /// kMirror behind a LatencyDevice charging 12 µs per request: the FUSE
  /// crossing the paper's module pays (Fig. 7's shape).
  kMirrorFuse,
};

/// Formats an imgfs of `image_size` bytes on `arm`'s device and runs
/// Bonnie on it. The device's files live in `dir`, which is created for
/// the run and removed with everything in it afterwards, whether or not
/// the run succeeded. A `dir` that cannot be created fails the run before
/// anything is written.
Result<apps::BonnieResult> run_bonnie_arm(BonnieArm arm, const std::string& dir,
                                          Bytes image_size,
                                          const apps::BonnieConfig& cfg);

}  // namespace vmstorm::bench
