// SimVirtualDisk: the mirroring module on the simulated cluster.
//
// Same translator logic as VirtualDisk (shared LocalState), but remote
// fetches cost network + provider-disk time through blob::SimCluster, and
// local mirror writes feed the compute node's disk write-back model. Local
// reads are memory-speed (the mirror file is mmapped, §4.2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "blob/sim_cluster.hpp"
#include "sim/sync.hpp"
#include "mirror/local_state.hpp"
#include "storage/disk.hpp"
#include "storage/vm_disk.hpp"

namespace vmstorm::mirror {

struct SimDiskStats {
  Bytes remote_bytes_fetched = 0;
  std::uint64_t remote_fetches = 0;
  std::uint64_t locate_calls = 0;
  std::uint64_t prefetched_chunks = 0;
  /// Demand fetches that found their chunk already being prefetched and
  /// waited for it instead of transferring again (prefetch hits).
  std::uint64_t inflight_waits = 0;
  /// Prefetch candidates skipped because demand mirrored them first.
  std::uint64_t prefetch_skipped = 0;
  /// Bytes fetched only to complete partially-written chunks (gap fill on
  /// the write path / pre-commit).
  Bytes gapfill_bytes = 0;
};

/// Chunk indices in first-access order, recorded during a run — the input
/// to the §7 future-work prefetcher ("build a prefetching scheme based on
/// previous experience with the access pattern").
using AccessProfile = std::vector<std::uint64_t>;

class SimVirtualDisk final : public storage::VmDisk {
 public:
  SimVirtualDisk(blob::SimCluster& cluster, net::NodeId node,
                 storage::Disk& local_disk, blob::BlobId blob,
                 blob::Version version, MirrorConfig cfg,
                 std::uint64_t instance_salt = 0);

  Bytes size() const { return state_.config().image_size; }
  blob::BlobId target_blob() const { return target_blob_; }
  blob::Version target_version() const { return target_version_; }

  sim::Task<void> read(Bytes offset, Bytes length) override;
  sim::Task<void> write(Bytes offset, Bytes length) override;

  /// Background prefetcher (§7 extension): walks a previously-recorded
  /// access profile and mirrors chunks ahead of demand, `window` chunks
  /// per batch. Runs until the profile is exhausted; skips chunks already
  /// mirrored by demand fetches. Spawn it alongside the boot.
  sim::Task<void> prefetch(AccessProfile profile, std::size_t window = 8);

  /// First-touch chunk order observed so far (feed to the next boot).
  const AccessProfile& access_profile() const { return access_order_; }

  /// Workload model for COMMIT payload content: the fraction of dirty
  /// chunks whose content is identical across instances (config templates,
  /// installed files), as opposed to instance-unique (logs, keys). Drives
  /// the deduplication extension; deterministic per chunk index.
  void set_commit_shared_fraction(double fraction) {
    commit_shared_fraction_ = fraction;
  }

  /// CLONE + COMMIT control primitives (§3.2).
  sim::Task<blob::BlobId> clone();
  sim::Task<blob::Version> commit();

  const SimDiskStats& stats() const { return stats_; }
  const LocalState& local_state() const { return state_; }

  /// Chunks the profile prefetcher has in flight. Demand fetches never
  /// register here, so this is 0 unless prefetch() runs; the timeline's
  /// mirror.bytes_in_flight series reads this times the chunk size.
  std::size_t inflight_chunks() const { return inflight_.size(); }

 private:
  /// Fetches the given missing ranges: one locate per request, then
  /// parallel per-chunk transfers, then local mirror write-back. The
  /// prefetcher registers its chunks as in-flight (register_inflight);
  /// demand fetches finding a chunk in flight wait for it instead of
  /// transferring the same data twice.
  sim::Task<void> fetch_ranges(std::vector<ByteRange> ranges,
                               bool register_inflight = false);
  std::uint64_t local_cache_key(std::uint64_t chunk) const;

  blob::SimCluster* cluster_;
  net::NodeId node_;
  storage::Disk* local_disk_;
  LocalState state_;
  blob::BlobId target_blob_;
  blob::Version target_version_;
  std::uint64_t salt_;
  SimDiskStats stats_;
  double commit_shared_fraction_ = 0.0;
  AccessProfile access_order_;
  /// Chunks currently being prefetched: chunk -> completion event.
  std::map<std::uint64_t, std::shared_ptr<sim::Event>> inflight_;
  std::vector<bool> first_touched_;
};

}  // namespace vmstorm::mirror
