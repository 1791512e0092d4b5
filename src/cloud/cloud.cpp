#include "cloud/cloud.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/env.hpp"
#include "obs/phases.hpp"
#include "obs/selfprof.hpp"
#include "sim/causal.hpp"
#include "sim/sync.hpp"

namespace vmstorm::cloud {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kPrepropagation: return "taktuk pre-propagation";
    case Strategy::kQcowOverPvfs: return "qcow2 over PVFS";
    case Strategy::kOurs: return "our approach";
  }
  return "?";
}

Cloud::Cloud(CloudConfig cfg, Strategy strategy)
    : cfg_(cfg), strategy_(strategy) {
  // Attach the recorder before any component exists: components cache their
  // metric handles at construction time.
  engine_.set_recorder(&obs_);
  if (const char* env = common::env_or("VMSTORM_TRACE")) {
    if (std::strcmp(env, "0") != 0) obs_.trace.set_enabled(true);
  }
  // Trace-volume knobs. VMSTORM_TRACE_RING bounds the retained event count
  // (ring overwrites the oldest past it); VMSTORM_TRACE_SAMPLE in [0,1]
  // keeps that fraction of root span trees, seeded from cfg.seed so the
  // decision is reproducible per seed.
  if (const char* env = common::env_or("VMSTORM_TRACE_RING")) {
    const unsigned long long cap = std::strtoull(env, nullptr, 10);
    if (cap > 0) obs_.trace.set_ring_capacity(static_cast<std::size_t>(cap));
  }
  if (const char* env = common::env_or("VMSTORM_TRACE_SAMPLE")) {
    obs_.trace.set_sampling(std::strtod(env, nullptr), cfg_.seed);
  }
  build_testbed();
  upload_image();
  // Timeline knobs mirror the trace ones: VMSTORM_TIMELINE=1 turns the
  // sampler on, VMSTORM_TIMELINE_CADENCE (simulated seconds) overrides the
  // sampling interval.
  if (const char* env = common::env_or("VMSTORM_TIMELINE")) {
    if (std::strcmp(env, "0") != 0) {
      obs::TimelineConfig tc;
      if (const char* cad = common::env_or("VMSTORM_TIMELINE_CADENCE")) {
        const double v = std::strtod(cad, nullptr);
        if (v > 0) tc.cadence_seconds = v;
      }
      enable_timeline(tc);
    }
  }
}

Cloud::~Cloud() = default;

void Cloud::build_testbed() {
  // Node layout: [0, N)               compute nodes (repository providers)
  //              [N, 2N)              fresh compute nodes for resume
  //              2N                   NFS server
  //              2N + 1               version/cloud manager
  const std::size_t n = cfg_.compute_nodes;
  network_ = std::make_unique<net::Network>(engine_, 2 * n + 2, cfg_.network);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    disks_.push_back(std::make_unique<storage::Disk>(engine_, cfg_.disk));
    disks_.back()->set_trace_lane(static_cast<std::uint32_t>(i));
    compute_nodes_.push_back(static_cast<net::NodeId>(i));
  }
  nfs_disk_ = std::make_unique<storage::Disk>(engine_, cfg_.disk);
  nfs_disk_->set_trace_lane(static_cast<std::uint32_t>(2 * n));
  nfs_node_ = static_cast<net::NodeId>(2 * n);
  manager_node_ = static_cast<net::NodeId>(2 * n + 1);
  next_fresh_node_ = n;
}

void Cloud::upload_image() {
  const std::size_t n = cfg_.compute_nodes;
  switch (strategy_) {
    case Strategy::kOurs: {
      blob::StoreConfig sc;
      sc.providers = n;
      sc.replication = cfg_.replication;
      sc.dedup = cfg_.dedup;
      sc.seed = cfg_.seed;
      store_ = std::make_unique<blob::BlobStore>(sc);
      std::vector<net::NodeId> provider_nodes(compute_nodes_.begin(),
                                              compute_nodes_.begin() + n);
      std::vector<storage::Disk*> provider_disks;
      for (std::size_t i = 0; i < n; ++i) provider_disks.push_back(disks_[i].get());
      cluster_ = std::make_unique<blob::SimCluster>(
          engine_, *network_, *store_, provider_nodes, provider_disks,
          manager_node_);
      auto blob = store_->create(cfg_.image_size, cfg_.chunk_size);
      if (!blob.is_ok()) throw std::runtime_error(blob.status().to_string());
      image_blob_ = blob.value();
      auto v = store_->write_pattern(image_blob_, 0, 0, cfg_.image_size, cfg_.seed);
      if (!v.is_ok()) throw std::runtime_error(v.status().to_string());
      break;
    }
    case Strategy::kQcowOverPvfs: {
      fs_ = std::make_unique<dfs::StripedFs>(n, cfg_.chunk_size);
      std::vector<net::NodeId> server_nodes(compute_nodes_.begin(),
                                            compute_nodes_.begin() + n);
      std::vector<storage::Disk*> server_disks;
      for (std::size_t i = 0; i < n; ++i) server_disks.push_back(disks_[i].get());
      sim_dfs_ = std::make_unique<dfs::SimDfs>(engine_, *network_, *fs_,
                                               server_nodes, server_disks);
      auto file = fs_->create("base.raw");
      if (!file.is_ok()) throw std::runtime_error(file.status().to_string());
      backing_file_ = file.value();
      Status st = fs_->write_pattern(backing_file_, 0, cfg_.image_size, cfg_.seed);
      if (!st.is_ok()) throw std::runtime_error(st.to_string());
      break;
    }
    case Strategy::kPrepropagation:
      // Image lives on the NFS server; nothing to pre-stage.
      break;
  }
}

std::unique_ptr<Cloud::Instance> Cloud::make_instance(std::size_t node_index,
                                                      const Instance* from) {
  auto inst = std::make_unique<Instance>();
  inst->node_index = node_index;
  storage::Disk& local = *disks_.at(node_index);
  const net::NodeId node = compute_nodes_.at(node_index);
  const std::uint64_t salt = next_salt_++;
  switch (strategy_) {
    case Strategy::kOurs: {
      mirror::MirrorConfig mc;
      mc.image_size = cfg_.image_size;
      mc.chunk_size = cfg_.chunk_size;
      mc.prefetch_whole_chunks = cfg_.mirror_prefetch_whole_chunks;
      mc.single_region_per_chunk = cfg_.mirror_single_region_per_chunk;
      auto ours = std::make_unique<mirror::SimVirtualDisk>(
          *cluster_, node, local,
          from != nullptr ? from->ours->target_blob() : image_blob_,
          from != nullptr ? from->ours->target_version() : 1, mc, salt);
      ours->set_commit_shared_fraction(cfg_.snapshot_shared_fraction);
      inst->ours = ours.get();
      inst->disk = std::move(ours);
      // A resumed instance already mirrors its own snapshot blob.
      inst->cloned = from != nullptr;
      break;
    }
    case Strategy::kQcowOverPvfs: {
      auto image = std::make_unique<qcow::SimImage>(
          *sim_dfs_, backing_file_, local, node, cfg_.image_size,
          cfg_.qcow_cluster_size, salt);
      if (from != nullptr) {
        image->adopt_allocation(*from->qcow);
        inst->snapshot_file = from->snapshot_file;
      }
      inst->qcow = image.get();
      inst->disk = std::move(image);
      break;
    }
    case Strategy::kPrepropagation:
      inst->disk = std::make_unique<storage::LocalVmDisk>(local, salt);
      break;
  }
  return inst;
}

MultideployMetrics Cloud::multideploy(std::size_t n,
                                      const vm::BootTraceParams& tp,
                                      vm::BootParams bp) {
  assert(n >= 1 && n <= cfg_.compute_nodes);
  MultideployMetrics m;
  const Bytes traffic0 = network_->total_traffic();
  const double t0 = engine_.now_seconds();

  // Phase span: opened before any child spawns so every coroutine of this
  // deployment inherits it (or a descendant) as parent.
  sim::SpanScope span(engine_);

  // Initialization phase (prepropagation only): broadcast the raw image.
  if (strategy_ == Strategy::kPrepropagation) {
    std::vector<net::NodeId> targets(compute_nodes_.begin(),
                                     compute_nodes_.begin() + n);
    std::vector<storage::Disk*> tdisks;
    for (std::size_t i = 0; i < n; ++i) tdisks.push_back(disks_[i].get());
    bcast::BroadcastResult br;
    engine_.spawn(bcast::broadcast(engine_, *network_, nfs_node_, *nfs_disk_,
                                   targets, tdisks, cfg_.image_size,
                                   cfg_.broadcast, &br));
    run_engine();
    m.broadcast_seconds = engine_.now_seconds() - t0;
  }

  // Instantiate and boot all VMs concurrently.
  instances_.clear();
  const vm::BootTrace trace = vm::BootTrace::generate(tp, cfg_.seed);
  Rng root(cfg_.seed ^ 0xb007b007ull);
  for (std::size_t i = 0; i < n; ++i) {
    instances_.push_back(make_instance(i, nullptr));
  }
  for (std::size_t i = 0; i < n; ++i) {
    vm::BootParams bpi = bp;
    bpi.trace_lane = static_cast<std::uint32_t>(i);
    bpi.trace_instance = i;
    bpi.trace_kind = "boot";
    engine_.spawn(vm::run_boot(engine_, *instances_[i]->disk, trace,
                               root.fork(i), bpi, &instances_[i]->boot));
    if (strategy_ == Strategy::kOurs && cfg_.prefetch_window > 0 &&
        !prefetch_profile_.empty()) {
      engine_.spawn(
          instances_[i]->ours->prefetch(prefetch_profile_, cfg_.prefetch_window));
    }
  }
  run_engine();

  for (auto& inst : instances_) m.boot_seconds.add(inst->boot.boot_seconds());
  // Completion = the slowest instance's boot, from phase start — what the
  // user perceives. (engine.run() also drained background disk flushers;
  // those are not part of the deployment's readiness.)
  double last = t0;
  for (auto& inst : instances_) last = std::max(last, inst->boot.finished);
  m.completion_seconds = last - t0;
  m.network_traffic = network_->total_traffic() - traffic0;
  if (span) {
    // Per-instance attribution comes from the vm/boot root spans; the phase
    // span only groups them in the chrome view.
    span.finish_at(last, 0, "cloud", "multideploy",
                   {obs::TraceArg::uint("instances", n)});
  }
  return m;
}

sim::Task<void> Cloud::snapshot_one(Instance& inst, double* finished) {
  // Root span for this snapshot: spawned at the phase start, so the analyzer
  // attributes [phase start, finished] of each instance's snapshot to it.
  sim::SpanScope span(engine_);
  switch (strategy_) {
    case Strategy::kOurs: {
      if (!inst.cloned) {
        co_await inst.ours->clone();
        inst.cloned = true;
      }
      co_await inst.ours->commit();
      break;
    }
    case Strategy::kQcowOverPvfs: {
      // Parallel copy of the local qcow2 file back to PVFS.
      const Bytes host_bytes = inst.qcow->host_file_bytes();
      const std::string name =
          "snap_" + std::to_string(inst.node_index) + "_" +
          std::to_string(engine_.now());
      auto file = fs_->create(name);
      if (!file.is_ok()) throw std::runtime_error(file.status().to_string());
      inst.snapshot_file = *file;
      // Local file is page-cache hot (just written); the cost is the push.
      co_await sim_dfs_->write(compute_nodes_[inst.node_index], *file, 0,
                               host_bytes);
      Status st = fs_->write_pattern(*file, 0, host_bytes, 0xdead);
      if (!st.is_ok()) throw std::runtime_error(st.to_string());
      break;
    }
    case Strategy::kPrepropagation:
      break;
  }
  *finished = engine_.now_seconds();
  if (span) {
    span.finish(static_cast<std::uint32_t>(inst.node_index), "cloud",
                "snapshot", {obs::TraceArg::uint("instance", inst.node_index)});
  }
}

Result<MultisnapshotMetrics> Cloud::multisnapshot() {
  if (strategy_ == Strategy::kPrepropagation) {
    return failed_precondition(
        "multisnapshotting full raw images back to NFS is infeasible (§5.3)");
  }
  if (instances_.empty()) return failed_precondition("no running instances");
  MultisnapshotMetrics m;
  const Bytes traffic0 = network_->total_traffic();
  const Bytes repo0 = repository_bytes();
  const double t0 = engine_.now_seconds();
  sim::SpanScope span(engine_);
  std::vector<double> finished(instances_.size(), 0.0);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    engine_.spawn(snapshot_one(*instances_[i], &finished[i]));
  }
  run_engine();
  double last = t0;
  for (double f : finished) {
    m.snapshot_seconds.add(f - t0);
    last = std::max(last, f);
  }
  m.completion_seconds = last - t0;
  m.network_traffic = network_->total_traffic() - traffic0;
  m.repository_growth = repository_bytes() - repo0;
  if (span) {
    span.finish_at(last, 0, "cloud", "multisnapshot",
                   {obs::TraceArg::uint("instances", instances_.size())});
  }
  return m;
}

namespace {
sim::Task<void> copy_snapshot_to_node(dfs::SimDfs* dfs, dfs::FileId file,
                                      net::NodeId node, storage::Disk* disk,
                                      Bytes bytes) {
  co_await dfs->read(node, file, 0, bytes);
  co_await disk->write_async(bytes);
}
}  // namespace

Result<MultideployMetrics> Cloud::resume_boot(const vm::BootTraceParams& tp,
                                              vm::BootParams bp) {
  if (instances_.empty()) return failed_precondition("nothing to resume");
  if (next_fresh_node_ + instances_.size() > disks_.size()) {
    return resource_exhausted("not enough fresh nodes to resume on");
  }
  if (strategy_ == Strategy::kPrepropagation) {
    return failed_precondition("prepropagation cannot resume");
  }
  if (strategy_ == Strategy::kOurs &&
      std::any_of(instances_.begin(), instances_.end(),
                  [](const auto& inst) { return !inst->cloned; })) {
    return failed_precondition("resume requires a prior multisnapshot");
  }
  MultideployMetrics m;
  const Bytes traffic0 = network_->total_traffic();
  const double t0 = engine_.now_seconds();
  sim::SpanScope span(engine_);

  const vm::BootTrace trace = vm::BootTrace::generate(tp, cfg_.seed ^ 0x5e5);
  Rng root(cfg_.seed ^ 0x4e5043ull);

  // Stage 1 (qcow2 only): pull each snapshot file onto its fresh node.
  if (strategy_ == Strategy::kQcowOverPvfs) {
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const std::size_t fresh = next_fresh_node_ + i;
      engine_.spawn(copy_snapshot_to_node(
          sim_dfs_.get(), instances_[i]->snapshot_file, compute_nodes_[fresh],
          disks_[fresh].get(), instances_[i]->qcow->host_file_bytes()));
    }
    run_engine();
  }

  std::vector<std::unique_ptr<Instance>> resumed;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    resumed.push_back(make_instance(next_fresh_node_ + i, instances_[i].get()));
  }
  next_fresh_node_ += instances_.size();

  for (std::size_t i = 0; i < resumed.size(); ++i) {
    vm::BootParams bpi = bp;
    bpi.trace_lane = static_cast<std::uint32_t>(resumed[i]->node_index);
    bpi.trace_instance = i;
    bpi.trace_kind = "resume";
    engine_.spawn(vm::run_boot(engine_, *resumed[i]->disk, trace,
                               root.fork(i), bpi, &resumed[i]->boot));
  }
  run_engine();
  instances_ = std::move(resumed);

  for (auto& inst : instances_) m.boot_seconds.add(inst->boot.boot_seconds());
  double last = t0;
  for (auto& inst : instances_) last = std::max(last, inst->boot.finished);
  m.completion_seconds = last - t0;
  m.network_traffic = network_->total_traffic() - traffic0;
  if (span) {
    span.finish_at(last, 0, "cloud", "resume_boot",
                   {obs::TraceArg::uint("instances", instances_.size())});
  }
  return m;
}

namespace {
sim::Task<void> app_phase_one(sim::Engine* engine, storage::VmDisk* disk,
                              double cpu_seconds, Bytes write_bytes,
                              std::size_t write_ops, Rng rng,
                              Bytes image_size) {
  const std::size_t steps = write_ops == 0 ? 1 : write_ops;
  const Bytes per_write = write_bytes / steps;
  const Bytes band_lo = image_size / 2;
  const Bytes band = image_size / 4;
  for (std::size_t s = 0; s < steps; ++s) {
    const double jitter = 0.9 + 0.2 * rng.uniform_double();
    co_await engine->sleep_seconds(cpu_seconds / steps * jitter);
    if (per_write > 0) {
      Bytes off = band_lo + rng.uniform_u64(band - per_write);
      off &= ~(4_KiB - 1);
      co_await disk->write(off, per_write);
    }
  }
}
}  // namespace

double Cloud::run_app_phase(double cpu_seconds, Bytes write_bytes,
                            std::size_t write_ops) {
  const double t0 = engine_.now_seconds();
  Rng root(cfg_.seed ^ 0xa44ull);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    engine_.spawn(app_phase_one(&engine_, instances_[i]->disk.get(),
                                cpu_seconds, write_bytes, write_ops,
                                root.fork(i), cfg_.image_size));
  }
  run_engine();
  return engine_.now_seconds() - t0;
}

Result<mirror::AccessProfile> Cloud::access_profile_of(
    std::size_t instance) const {
  if (instance >= instances_.size()) return out_of_range("instance index");
  if (strategy_ != Strategy::kOurs || !instances_[instance]->ours) {
    return failed_precondition("access profiles exist for kOurs only");
  }
  return instances_[instance]->ours->access_profile();
}

Bytes Cloud::repository_bytes() const {
  switch (strategy_) {
    case Strategy::kOurs: return store_->stored_bytes();
    case Strategy::kQcowOverPvfs: return fs_->stored_bytes();
    case Strategy::kPrepropagation: return cfg_.image_size;
  }
  return 0;
}

// ---- Timeline sampling ------------------------------------------------------

void Cloud::enable_timeline(obs::TimelineConfig cfg) {
  obs_.timeline.configure(cfg);
  obs_.timeline.set_enabled(true);
  tlp_ = TimelineProbe{};
}

storage::Disk& Cloud::repo_disk(std::size_t i) {
  // Repository role: the blob providers / DFS servers (first N compute
  // disks) for ours/qcow; the NFS server disk for prepropagation.
  if (strategy_ == Strategy::kPrepropagation) return *nfs_disk_;
  return *disks_[i];
}

void Cloud::setup_timeline() {
  // Per-provider labeled series are registered for at most this many
  // providers; larger fleets keep the aggregate series only, so a 10k-node
  // run does not export 40k columns.
  constexpr std::size_t kMaxLabeledProviders = 64;
  obs::Timeline& tl = obs_.timeline;
  const std::size_t n = cfg_.compute_nodes;
  tlp_.repo_disks = strategy_ == Strategy::kPrepropagation ? 1 : n;
  tlp_.labeled = strategy_ == Strategy::kPrepropagation
                     ? 0
                     : std::min(n, kMaxLabeledProviders);
  tlp_.has_mirror = strategy_ == Strategy::kOurs;

  tlp_.net_tp = tl.add_series("net.throughput_bytes_per_sec");
  tlp_.net_payload = tl.add_series("net.payload_bytes_per_sec");
  tlp_.util_net = tl.add_series("util.network");
  tlp_.util_repo = tl.add_series("util.repo_disk");
  tlp_.util_local = tl.add_series("util.local_disk");
  tlp_.sim_queue = tl.add_series("sim.queue_depth");
  tlp_.sim_tasks = tl.add_series("sim.live_tasks");
  tlp_.repo_growth = tl.add_series("repo.stored_bytes_per_sec");
  tlp_.imbalance = tl.add_series("provider.imbalance");
  tlp_.qd_mean = tl.add_series("provider.queue_depth_mean");
  tlp_.qd_max = tl.add_series("provider.queue_depth_max");
  if (tlp_.has_mirror) {
    tlp_.mirror_inflight = tl.add_series("mirror.bytes_in_flight");
  }
  for (std::size_t i = 0; i < tlp_.labeled; ++i) {
    const obs::TimelineLabels labels{{"provider", std::to_string(i)}};
    tlp_.p_qd.push_back(tl.add_series("provider.queue_depth", labels));
    tlp_.p_util.push_back(tl.add_series("provider.util", labels));
    tlp_.p_hit.push_back(tl.add_series("provider.cache_hit_rate", labels));
    tlp_.p_nic.push_back(tl.add_series("provider.nic_util", labels));
  }

  // Seed the delta baselines from current component state, so a timeline
  // enabled mid-run does not book all prior traffic into its first sample.
  tlp_.prev_traffic = static_cast<double>(network_->total_traffic());
  tlp_.prev_payload = static_cast<double>(network_->total_payload());
  tlp_.prev_stored = static_cast<double>(repository_bytes());
  double nic_busy_all = 0;
  for (std::size_t i = 0; i < network_->node_count(); ++i) {
    net::NetNode& nd = network_->node(static_cast<net::NodeId>(i));
    nic_busy_all += sim::to_seconds(nd.tx().busy_time()) +
                    sim::to_seconds(nd.rx().busy_time());
  }
  tlp_.prev_nic_busy_all = nic_busy_all;
  tlp_.prev_busy.assign(tlp_.repo_disks, 0.0);
  tlp_.prev_hits.assign(tlp_.repo_disks, 0.0);
  tlp_.prev_misses.assign(tlp_.repo_disks, 0.0);
  for (std::size_t i = 0; i < tlp_.repo_disks; ++i) {
    storage::Disk& d = repo_disk(i);
    tlp_.prev_busy[i] = sim::to_seconds(d.busy_time());
    tlp_.prev_hits[i] = static_cast<double>(d.cache_hits());
    tlp_.prev_misses[i] = static_cast<double>(d.cache_misses());
  }
  tlp_.prev_nic.assign(tlp_.labeled, 0.0);
  for (std::size_t i = 0; i < tlp_.labeled; ++i) {
    net::NetNode& nd = network_->node(compute_nodes_[i]);
    tlp_.prev_nic[i] = sim::to_seconds(nd.tx().busy_time()) +
                       sim::to_seconds(nd.rx().busy_time());
  }
  tlp_.last_t = engine_.now_seconds();
  tlp_.ready = true;
}

void Cloud::sample_timeline() {
  obs::Timeline& tl = obs_.timeline;
  const double t = engine_.now_seconds();
  const double dt = t - tlp_.last_t;
  if (dt <= 0) return;  // same-instant duplicate wakeup
  tlp_.last_t = t;
  tl.begin_sample(t);
  const auto as_d = [](auto v) { return static_cast<double>(v); };

  // Network aggregates: wire throughput and mean NIC busy fraction.
  const double traffic = as_d(network_->total_traffic());
  tl.record(tlp_.net_tp, (traffic - tlp_.prev_traffic) / dt);
  tlp_.prev_traffic = traffic;
  const double payload = as_d(network_->total_payload());
  tl.record(tlp_.net_payload, (payload - tlp_.prev_payload) / dt);
  tlp_.prev_payload = payload;
  double nic_busy_all = 0;
  const std::size_t nodes = network_->node_count();
  for (std::size_t i = 0; i < nodes; ++i) {
    net::NetNode& nd = network_->node(static_cast<net::NodeId>(i));
    nic_busy_all += sim::to_seconds(nd.tx().busy_time()) +
                    sim::to_seconds(nd.rx().busy_time());
  }
  tl.record(tlp_.util_net,
            nodes > 0 ? (nic_busy_all - tlp_.prev_nic_busy_all) /
                            (2.0 * as_d(nodes) * dt)
                      : 0.0);
  tlp_.prev_nic_busy_all = nic_busy_all;

  // Repository disks: mean busy fraction, queue depth, and skew. Labeled
  // providers additionally record their own series.
  double busy_delta_sum = 0, busy_delta_max = 0, qd_sum = 0;
  std::uint64_t qd_max = 0;
  for (std::size_t i = 0; i < tlp_.repo_disks; ++i) {
    storage::Disk& d = repo_disk(i);
    const double busy = sim::to_seconds(d.busy_time());
    const double delta = busy - tlp_.prev_busy[i];
    tlp_.prev_busy[i] = busy;
    busy_delta_sum += delta;
    if (delta > busy_delta_max) busy_delta_max = delta;
    const std::uint64_t qd = d.queue_depth();
    qd_sum += as_d(qd);
    if (qd > qd_max) qd_max = qd;
    if (i < tlp_.labeled) {
      tl.record(tlp_.p_qd[i], as_d(qd));
      tl.record(tlp_.p_util[i], delta / dt);
      const double hits = as_d(d.cache_hits());
      const double misses = as_d(d.cache_misses());
      const double dh = hits - tlp_.prev_hits[i];
      const double dm = misses - tlp_.prev_misses[i];
      tlp_.prev_hits[i] = hits;
      tlp_.prev_misses[i] = misses;
      tl.record(tlp_.p_hit[i], dh + dm > 0 ? dh / (dh + dm) : 0.0);
      net::NetNode& nd = network_->node(compute_nodes_[i]);
      const double nic = sim::to_seconds(nd.tx().busy_time()) +
                         sim::to_seconds(nd.rx().busy_time());
      tl.record(tlp_.p_nic[i], (nic - tlp_.prev_nic[i]) / (2.0 * dt));
      tlp_.prev_nic[i] = nic;
    }
  }
  const double nrepo = as_d(tlp_.repo_disks);
  tl.record(tlp_.util_repo,
            tlp_.repo_disks > 0 ? busy_delta_sum / (nrepo * dt) : 0.0);
  const double mean_delta = tlp_.repo_disks > 0 ? busy_delta_sum / nrepo : 0.0;
  tl.record(tlp_.imbalance, mean_delta > 0 ? busy_delta_max / mean_delta : 0.0);
  tl.record(tlp_.qd_mean, tlp_.repo_disks > 0 ? qd_sum / nrepo : 0.0);
  tl.record(tlp_.qd_max, as_d(qd_max));

  // Local-disk pressure: the fullest dirty-page budget in the fleet. When
  // this nears 1, write-back throttling binds writers — the Fig. 5(a)
  // degradation regime.
  double dirty_frac = 0;
  const double limit = as_d(cfg_.disk.dirty_limit);
  if (limit > 0) {
    Bytes dirty_max = 0;
    for (const auto& d : disks_) dirty_max = std::max(dirty_max, d->dirty_bytes());
    dirty_max = std::max(dirty_max, nfs_disk_->dirty_bytes());
    dirty_frac = std::min(1.0, as_d(dirty_max) / limit);
  }
  tl.record(tlp_.util_local, dirty_frac);

  tl.record(tlp_.sim_queue, as_d(engine_.queue_depth()));
  tl.record(tlp_.sim_tasks, as_d(engine_.live_tasks()));

  const double stored = as_d(repository_bytes());
  tl.record(tlp_.repo_growth, (stored - tlp_.prev_stored) / dt);
  tlp_.prev_stored = stored;

  if (tlp_.has_mirror) {
    // Only the profile prefetcher's in-flight chunks count (demand fetches
    // never register), so this reads 0 unless prefetch() runs. During
    // resume_boot, instances_ still holds the fleet being resumed from.
    Bytes inflight = 0;
    for (const auto& inst : instances_) {
      if (inst->ours) {
        inflight += inst->ours->inflight_chunks() * cfg_.chunk_size;
      }
    }
    tl.record(tlp_.mirror_inflight, as_d(inflight));
  }
}

sim::Task<void> Cloud::timeline_sampler() {
  // Background lane, billed like the Disk flusher: span 0 keeps the
  // sampler's sleeps and wakeups out of critical-path attribution, so the
  // workload spans' bucket sums stay closed.
  engine_.set_current_span(0);
  const double cadence = obs_.timeline.cadence_seconds();
  for (;;) {
    const double now = engine_.now_seconds();
    // Next absolute grid point strictly after now. The grid is global
    // (k * cadence from t = 0), so samples from consecutive phases align.
    double next = (std::floor(now / cadence + 1e-9) + 1.0) * cadence;
    if (next <= now) next = now + cadence;
    co_await engine_.sleep_until(sim::from_seconds(next));
    const std::uint64_t events = engine_.events_processed();
    const bool idle = events - tlp_.last_events <= 1;
    tlp_.last_events = events;
    sample_timeline();
    // Exit once the workload drained: nothing queued, and either the
    // sampler is the only live task or the whole interval processed no
    // event but our own wakeup (covers tasks parked on events nobody will
    // set — without this the sampler would keep simulated time advancing
    // forever and run() would never return).
    if (engine_.queue_depth() == 0 &&
        (engine_.live_tasks() == 1 || idle)) {
      break;
    }
  }
}

void Cloud::run_engine() {
  if (obs_.timeline.enabled()) {
    if (!tlp_.ready) setup_timeline();
    tlp_.last_events = engine_.events_processed();
    engine_.spawn(timeline_sampler());
  }
  engine_.run();
}

std::string Cloud::timeline_json() const {
  const obs::Timeline& tl = obs_.timeline;
  if (!tl.enabled()) return "";
  if (!tlp_.ready) return tl.to_json();
  obs::PhaseOptions po;
  po.cadence_seconds = tl.cadence_seconds();
  const obs::PhaseReport phases = obs::analyze_phases(
      tl.times(), tl.values(tlp_.util_repo), tl.values(tlp_.util_net),
      tl.values(tlp_.util_local), po);
  return tl.to_json(obs::phases_json(phases));
}

void Cloud::collect_metrics() {
  obs::Registry& reg = obs_.metrics;
  const auto as_d = [](auto v) { return static_cast<double>(v); };

  reg.gauge("sim.events_processed").set(as_d(engine_.events_processed()));
  reg.gauge("sim.cancelled_wakeups").set(as_d(engine_.cancelled_wakeups()));
  reg.gauge("sim.live_tasks").set(as_d(engine_.live_tasks()));
  reg.gauge("sim.now_seconds").set(engine_.now_seconds());

  // Engine self-telemetry: pure functions of seed and spawn order, so they
  // belong with the deterministic gauges (same seed => same values).
  reg.gauge("sim.events_scheduled").set(as_d(engine_.events_scheduled()));
  reg.gauge("sim.queue_depth_high_water")
      .set(as_d(engine_.queue_depth_high_water()));
  reg.gauge("sim.wait_records_created")
      .set(as_d(engine_.wait_records_created()));
  reg.gauge("sim.wait_records_live").set(as_d(engine_.wait_records_live()));
  reg.gauge("sim.wait_records_live_high_water")
      .set(as_d(engine_.wait_records_live_high_water()));

  reg.gauge("net.total_traffic_bytes").set(as_d(network_->total_traffic()));
  reg.gauge("net.payload_bytes").set(as_d(network_->total_payload()));
  reg.gauge("net.messages").set(as_d(network_->total_messages()));
  reg.gauge("net.connections").set(as_d(network_->connections_opened()));
  double nic_wait = 0, nic_busy = 0;
  for (std::size_t i = 0; i < network_->node_count(); ++i) {
    net::NetNode& nd = network_->node(static_cast<net::NodeId>(i));
    nic_wait += sim::to_seconds(nd.tx().total_queue_wait()) +
                sim::to_seconds(nd.rx().total_queue_wait());
    nic_busy += sim::to_seconds(nd.tx().busy_time()) +
                sim::to_seconds(nd.rx().busy_time());
  }
  reg.gauge("net.nic_queue_wait_seconds").set(nic_wait);
  reg.gauge("net.nic_busy_seconds").set(nic_busy);

  double disk_wait = 0, disk_busy = 0;
  std::uint64_t hits = 0, misses = 0;
  Bytes platter_bytes = 0, dirty = 0;
  const auto tally = [&](const storage::Disk& d) {
    disk_wait += sim::to_seconds(d.queue_wait_time());
    disk_busy += sim::to_seconds(d.busy_time());
    hits += d.cache_hits();
    misses += d.cache_misses();
    platter_bytes += d.bytes_read_platter();
    dirty += d.dirty_bytes();
  };
  for (const auto& d : disks_) tally(*d);
  tally(*nfs_disk_);
  reg.gauge("disk.queue_wait_seconds_total").set(disk_wait);
  reg.gauge("disk.busy_seconds_total").set(disk_busy);
  reg.gauge("disk.platter_bytes").set(as_d(platter_bytes));
  reg.gauge("disk.dirty_bytes").set(as_d(dirty));
  reg.gauge("disk.cache_hit_ratio")
      .set(hits + misses > 0 ? as_d(hits) / as_d(hits + misses) : 0.0);

  if (store_) {
    reg.gauge("blob.stored_bytes").set(as_d(store_->stored_bytes()));
    reg.gauge("blob.metadata_nodes").set(as_d(store_->metadata_nodes()));
    reg.gauge("blob.metadata_node_visits")
        .set(as_d(store_->metadata_node_visits()));
    reg.gauge("blob.dedup_hits").set(as_d(store_->dedup_hits()));
    reg.gauge("blob.dedup_saved_bytes").set(as_d(store_->dedup_saved_bytes()));
  }

  if (cluster_) {
    // Per-provider skew summary (the paper's §5.2 load-balance concern),
    // available with timelines off: platter queue-depth high-water across
    // providers and the served-bytes imbalance ratio (max/mean; 1.0 is a
    // perfectly even spread, 0 means no provider traffic yet).
    const std::size_t np = cluster_->provider_count();
    std::uint64_t qd_max = 0;
    double qd_sum = 0, served_sum = 0, served_max = 0;
    for (std::size_t p = 0; p < np; ++p) {
      storage::Disk& d = cluster_->disk_of(static_cast<blob::ProviderId>(p));
      const std::uint64_t qd = d.queue_depth_high_water();
      qd_sum += as_d(qd);
      if (qd > qd_max) qd_max = qd;
      const double served = as_d(d.bytes_read_platter());
      served_sum += served;
      if (served > served_max) served_max = served;
    }
    reg.gauge("blob.provider.queue_depth_max").set(as_d(qd_max));
    reg.gauge("blob.provider.queue_depth_mean")
        .set(np > 0 ? qd_sum / as_d(np) : 0.0);
    const double served_mean = np > 0 ? served_sum / as_d(np) : 0.0;
    reg.gauge("blob.provider.imbalance")
        .set(served_mean > 0 ? served_max / served_mean : 0.0);
  }

  if (strategy_ == Strategy::kOurs) {
    Bytes fetched = 0, gapfill = 0, mirrored = 0, mirror_dirty = 0;
    std::uint64_t fetches = 0, locates = 0, prefetched = 0, waits = 0,
                  skipped = 0;
    std::size_t fragments = 0;
    bool single_region = true;
    for (const auto& inst : instances_) {
      if (!inst->ours) continue;
      const mirror::SimDiskStats& s = inst->ours->stats();
      fetched += s.remote_bytes_fetched;
      fetches += s.remote_fetches;
      locates += s.locate_calls;
      prefetched += s.prefetched_chunks;
      waits += s.inflight_waits;
      skipped += s.prefetch_skipped;
      gapfill += s.gapfill_bytes;
      const mirror::LocalState& ls = inst->ours->local_state();
      fragments += ls.fragment_count();
      mirrored += ls.mirrored_bytes();
      mirror_dirty += ls.dirty_bytes();
      single_region = single_region && ls.single_region_invariant_holds();
    }
    reg.gauge("mirror.remote_bytes_fetched").set(as_d(fetched));
    reg.gauge("mirror.remote_fetches").set(as_d(fetches));
    reg.gauge("mirror.locate_calls").set(as_d(locates));
    reg.gauge("mirror.prefetched_chunks").set(as_d(prefetched));
    reg.gauge("mirror.inflight_waits").set(as_d(waits));
    reg.gauge("mirror.prefetch_skipped").set(as_d(skipped));
    // Fraction of prefetch candidates that were genuinely ahead of demand.
    reg.gauge("mirror.prefetch_hit_ratio")
        .set(prefetched + skipped > 0 ? as_d(prefetched) / as_d(prefetched + skipped)
                                      : 0.0);
    reg.gauge("mirror.gapfill_bytes").set(as_d(gapfill));
    reg.gauge("mirror.fragment_count").set(as_d(fragments));
    reg.gauge("mirror.mirrored_bytes").set(as_d(mirrored));
    reg.gauge("mirror.dirty_bytes").set(as_d(mirror_dirty));
    reg.gauge("mirror.single_region_invariant").set(single_region ? 1.0 : 0.0);
  }

  reg.gauge("cloud.instances").set(as_d(instances_.size()));
  reg.gauge("cloud.repository_bytes").set(as_d(repository_bytes()));

  // Trace volume accounting: what was recorded vs dropped, by cause. The
  // ring/sampling decisions are deterministic (capacity + seed-derived),
  // so these stay in the fingerprinted export too.
  reg.gauge("trace.sampled").set(as_d(obs_.trace.recorded_total()));
  reg.gauge("trace.dropped").set(as_d(obs_.trace.dropped_total()));
  reg.gauge("trace.dropped_ring").set(as_d(obs_.trace.dropped_ring()));
  reg.gauge("trace.dropped_sampling").set(as_d(obs_.trace.dropped_sampling()));

  if (obs_.timeline.enabled()) {
    reg.gauge("timeline.samples_taken")
        .set(as_d(obs_.timeline.samples_taken()));
    reg.gauge("timeline.dropped_samples")
        .set(as_d(obs_.timeline.dropped_samples()));
  }

  // Host-side numbers (wall clock, RSS) vary run to run on the same seed;
  // they live in the host scope, which to_json() never serializes.
  if (const obs::SelfProfiler* prof = engine_.profiler()) {
    const double wall = prof->run_seconds();
    reg.host_gauge("engine.wall_seconds").set(wall);
    reg.host_gauge("engine.events_per_sec")
        .set(wall > 0 ? as_d(engine_.events_processed()) / wall : 0.0);
    reg.host_gauge("engine.dispatch_seconds").set(prof->dispatch_seconds());
    reg.host_gauge("engine.queue_ops_seconds")
        .set(prof->seconds(obs::SelfProfiler::kQueueOps));
    reg.host_gauge("engine.auditor_seconds")
        .set(prof->seconds(obs::SelfProfiler::kAuditor));
    reg.host_gauge("engine.tracer_seconds")
        .set(prof->seconds(obs::SelfProfiler::kTracer));
    reg.host_gauge("engine.user_work_seconds").set(prof->user_seconds());
    reg.host_gauge("host.peak_rss_bytes").set(as_d(obs::peak_rss_bytes()));
  }
}

std::string Cloud::metrics_json() {
  collect_metrics();
  return obs_.metrics.to_json();
}

}  // namespace vmstorm::cloud
