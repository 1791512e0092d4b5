// Cloud: the simplified cloud-middleware service of §4.2 ("we implemented a
// simplified service that is responsible for coordinating and issuing these
// two primitives in a series of experimental scenarios").
//
// One Cloud instance = one simulated testbed (Grid'5000-Nancy-calibrated
// network and disks) + one deployment strategy:
//
//   kPrepropagation — taktuk-style broadcast of the full raw image from an
//                     NFS node, then boot from the local copy;
//   kQcowOverPvfs   — raw backing image striped on the PVFS-like DFS,
//                     per-node qcow2 CoW images fetching on demand;
//   kOurs           — image striped on the BlobSeer-style store aggregated
//                     from the compute nodes' local disks, mirrored lazily
//                     by the mirroring module.
//
// The phase methods each drive the event loop to completion and report the
// metrics the paper's figures plot. multideploy() then multisnapshot() on
// the same Cloud reproduces the §5.2/§5.3 pipeline; resume_boot() supports
// the §5.5 suspend/resume scenario.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "bcast/broadcast.hpp"
#include "blob/sim_cluster.hpp"
#include "blob/store.hpp"
#include "common/stats.hpp"
#include "dfs/sim_dfs.hpp"
#include "dfs/striped_fs.hpp"
#include "mirror/sim_disk.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "qcow/sim_image.hpp"
#include "sim/engine.hpp"
#include "storage/disk.hpp"
#include "storage/vm_disk.hpp"
#include "vm/boot_trace.hpp"
#include "vm/lifecycle.hpp"

namespace vmstorm::cloud {

enum class Strategy { kPrepropagation, kQcowOverPvfs, kOurs };

const char* strategy_name(Strategy s);

struct CloudConfig {
  std::size_t compute_nodes = 110;
  net::NetworkConfig network;        // defaults = paper testbed
  storage::DiskConfig disk;          // defaults = paper testbed
  Bytes image_size = 2_GiB;
  Bytes chunk_size = 256_KiB;        // ours chunk == pvfs stripe (§5.2)
  Bytes qcow_cluster_size = 64_KiB;  // qcow2 default
  std::size_t replication = 1;
  /// Content-hash deduplication in the repository (§7 future work).
  bool dedup = false;
  bool mirror_prefetch_whole_chunks = true;
  bool mirror_single_region_per_chunk = true;
  /// Profile-guided prefetch window (§7 future work): 0 disables; >0
  /// spawns a background prefetcher per instance walking the profile set
  /// via set_prefetch_profile().
  std::size_t prefetch_window = 0;
  /// Fraction of snapshot content identical across instances (feeds the
  /// deduplication extension's content model).
  double snapshot_shared_fraction = 0.0;
  bcast::BroadcastConfig broadcast;  // prepropagation transport
  std::uint64_t seed = 2011;
};

struct MultideployMetrics {
  SampleSet boot_seconds;        // Fig. 4(a): per-instance boot time
  double completion_seconds = 0; // Fig. 4(b): slowest instance, incl. init
  double broadcast_seconds = 0;  // prepropagation initialization phase
  Bytes network_traffic = 0;     // Fig. 4(d): wire bytes for this phase
};

struct MultisnapshotMetrics {
  SampleSet snapshot_seconds;    // Fig. 5(a)
  double completion_seconds = 0; // Fig. 5(b)
  Bytes network_traffic = 0;
  Bytes repository_growth = 0;   // stored bytes added by the snapshots
};

class Cloud {
 public:
  Cloud(CloudConfig cfg, Strategy strategy);
  ~Cloud();

  Strategy strategy() const { return strategy_; }
  sim::Engine& engine() { return engine_; }
  net::Network& network() { return *network_; }

  /// Phase 1+2 of §5.2: provision `n` instances (one per compute node) and
  /// boot them all concurrently from the shared image.
  MultideployMetrics multideploy(std::size_t n, const vm::BootTraceParams& tp,
                                 vm::BootParams bp = vm::BootParams{});

  /// §5.3: snapshot every running instance (CLONE broadcast + COMMIT for
  /// ours; parallel qcow2-file copy to the DFS for the baseline).
  /// Unsupported for prepropagation (the paper's §5.3 drops it too: copying
  /// full images back is infeasible).
  Result<MultisnapshotMetrics> multisnapshot();

  /// §5.5 suspend/resume: re-deploys each snapshotted instance on a FRESH
  /// node (different local disk, nothing mirrored) and boots it again.
  /// Must follow multisnapshot(). The fleet then points at the resumed
  /// instances.
  Result<MultideployMetrics> resume_boot(const vm::BootTraceParams& tp,
                                         vm::BootParams bp = vm::BootParams{});

  /// Runs an application phase: for each instance, `cpu_seconds` of work
  /// (jittered) with `write_bytes` of in-image state written along the
  /// way. Returns the phase's wall time.
  double run_app_phase(double cpu_seconds, Bytes write_bytes,
                       std::size_t write_ops = 16);

  std::size_t instance_count() const { return instances_.size(); }

  /// Installs the access profile the §7 prefetcher follows (kOurs only;
  /// takes effect at the next multideploy when cfg.prefetch_window > 0).
  void set_prefetch_profile(mirror::AccessProfile profile) {
    prefetch_profile_ = std::move(profile);
  }

  /// First-touch chunk order recorded by an instance's mirroring module
  /// during the last boot (kOurs only) — feed it to the next deployment.
  Result<mirror::AccessProfile> access_profile_of(std::size_t instance) const;

  /// Repository footprint of image data (ours / qcow backing store).
  Bytes repository_bytes() const;

  /// Deduplication counters of the repository (kOurs with cfg.dedup).
  std::uint64_t dedup_hits() const { return store_ ? store_->dedup_hits() : 0; }
  Bytes dedup_saved_bytes() const {
    return store_ ? store_->dedup_saved_bytes() : 0;
  }

  // ---- Observability ------------------------------------------------------

  /// The Recorder every simulated component of this Cloud reports into.
  /// Tracing defaults off (VMSTORM_TRACE=1 enables it at construction);
  /// metrics are always recorded.
  obs::Recorder& obs() { return obs_; }
  const obs::Recorder& obs() const { return obs_; }

  /// Refreshes the pull-side gauges (simulator, NIC/disk aggregates, blob
  /// store, mirroring modules) from current component state. Idempotent:
  /// gauges are overwritten, so calling repeatedly is safe.
  void collect_metrics();

  /// collect_metrics() + the registry serialized as deterministic JSON.
  std::string metrics_json();

  /// Trace exports (empty when tracing is disabled).
  std::string trace_jsonl() const { return obs_.trace.jsonl(); }
  std::string trace_chrome_json() const { return obs_.trace.chrome_json(); }

  /// Turns on deterministic time-series sampling: a span-0 background task
  /// (billed like the Disk flusher, excluded from critpath attribution)
  /// samples per-provider and aggregate load series every
  /// cfg.cadence_seconds of simulated time while any phase runs.
  /// VMSTORM_TIMELINE=1 enables it at construction;
  /// VMSTORM_TIMELINE_CADENCE overrides the cadence.
  void enable_timeline(obs::TimelineConfig cfg = obs::TimelineConfig{});
  bool timeline_enabled() const { return obs_.timeline.enabled(); }

  /// The artifact `timeline` section: sampled series plus the phase
  /// analyzer's regime segmentation. Empty when sampling is disabled.
  std::string timeline_json() const;

 private:
  struct Instance {
    std::size_t node_index = 0;  // compute node hosting it
    std::unique_ptr<storage::VmDisk> disk;  // the guest's disk
    // `disk` again, for the calls only one strategy makes; null otherwise.
    mirror::SimVirtualDisk* ours = nullptr;  // Strategy::kOurs
    qcow::SimImage* qcow = nullptr;          // Strategy::kQcowOverPvfs
    dfs::FileId snapshot_file = 0;           // qcow2 snapshot on the DFS
    vm::BootResult boot;
    bool cloned = false;
  };

  void build_testbed();
  void upload_image();
  /// Builds the instance on compute node `node_index` with the next salt:
  /// booting the image, or, when `from` is set, resuming `from`'s snapshot.
  std::unique_ptr<Instance> make_instance(std::size_t node_index,
                                          const Instance* from);
  sim::Task<void> snapshot_one(Instance& inst, double* finished);

  // ---- Timeline sampling --------------------------------------------------
  // Cached series ids and previous cumulative counter values for the
  // sampler's delta computations. Sized once in setup_timeline(); the
  // per-sample path only indexes, so sampling allocates nothing.
  struct TimelineProbe {
    bool ready = false;
    double last_t = 0;
    std::uint64_t last_events = 0;  ///< engine events at the previous sample
    std::size_t repo_disks = 0;     ///< repository-role disk count
    std::size_t labeled = 0;        ///< providers with labeled series
    obs::Timeline::SeriesId net_tp = 0, net_payload = 0, util_net = 0,
                            util_repo = 0, util_local = 0, sim_queue = 0,
                            sim_tasks = 0, repo_growth = 0, imbalance = 0,
                            qd_mean = 0, qd_max = 0, mirror_inflight = 0;
    bool has_mirror = false;
    std::vector<obs::Timeline::SeriesId> p_qd, p_util, p_hit, p_nic;
    double prev_traffic = 0, prev_payload = 0, prev_stored = 0,
           prev_nic_busy_all = 0;
    std::vector<double> prev_busy, prev_hits, prev_misses, prev_nic;
  };
  storage::Disk& repo_disk(std::size_t i);
  void setup_timeline();
  void sample_timeline();
  sim::Task<void> timeline_sampler();
  /// Drives the event loop like engine_.run(), spawning a fresh sampler
  /// first when the timeline is enabled (the sampler exits once it is the
  /// only live task, so each phase respawns it).
  void run_engine();

  CloudConfig cfg_;
  Strategy strategy_;
  // Declared before engine_/components: they cache handles into obs_, so it
  // must outlive them (members destroy in reverse declaration order).
  obs::Recorder obs_;
  sim::Engine engine_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<storage::Disk>> disks_;
  std::unique_ptr<storage::Disk> nfs_disk_;
  std::vector<net::NodeId> compute_nodes_;
  net::NodeId nfs_node_ = 0;
  net::NodeId manager_node_ = 0;

  // Ours.
  std::unique_ptr<blob::BlobStore> store_;
  std::unique_ptr<blob::SimCluster> cluster_;
  blob::BlobId image_blob_ = blob::kInvalidBlob;

  // qcow2 over PVFS.
  std::unique_ptr<dfs::StripedFs> fs_;
  std::unique_ptr<dfs::SimDfs> sim_dfs_;
  dfs::FileId backing_file_ = 0;

  std::vector<std::unique_ptr<Instance>> instances_;
  mirror::AccessProfile prefetch_profile_;
  std::uint64_t next_salt_ = 1;
  std::size_t next_fresh_node_ = 0;  // for resume_boot placement
  TimelineProbe tlp_;
};

}  // namespace vmstorm::cloud
