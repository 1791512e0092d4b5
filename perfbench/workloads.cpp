// One benchmark workload, repeated in one process and measured from
// outside the library; each repetition is printed as one JSON line.
//
//   vmstorm_perfbench <workload> <seed> <plain|alternate> <full|tiny>
//                     <tmpdir> <seconds>
//
// The first repetition warms the process up; timed ones follow while the
// next still fits in <seconds> (at least kMinTimedReps). `alternate` makes
// every second timed repetition a profiled one.
//
// Workloads (README.md says why each exists):
//   paper_baselines    §5.1 testbed: taktuk deploy, then qcow2/PVFS deploy,
//                      snapshot, resume
//   paper_ours_traced  fig4/fig5 capture run (tracing + timeline on): deploy,
//                      snapshot, then every obs export
//   real_mirror        real bytes: 8 VirtualDisks replay a boot trace,
//                      clone + commit, and read their snapshots back
//
// Every timer sums host seconds spent inside calls to one public function.
// `setup_s` covers construction (Cloud or BlobStore + image upload) and
// boot-trace generation (fastest of kSetups tries). Counts are read from
// public accessors after the timed calls and must repeat exactly for a
// seed. The digest hashes the workload's outcomes; `failed` counts
// operations that returned an error or produced an impossible outcome
// (a VM that finished no later than its phase started, a byte that reads
// back wrong).
//
// After each repetition the driver times a fixed calibration loop
// (`calibration_s`), which measures the host's speed at that moment.
//
// A profiled repetition attaches obs::SelfProfiler to the engine and
// tracer. It reads the clock about four times per event, so plain
// repetitions never carry it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blob/chunk.hpp"
#include "blob/store.hpp"
#include "cloud/cloud.hpp"
#include "common/interval.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "mirror/virtual_disk.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"
#include "util/bench_util.hpp"
#include "vm/boot_trace.hpp"

namespace vmstorm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2011;
  bool profiled = false;
  bool tiny = false;
  std::string tmpdir;
};

/// What one repetition reports. Timers and counts are keyed by the metric
/// names README.md lists.
struct Outcome {
  double setup_s = 0;
  std::map<std::string, double> timers;  // host seconds per layer call
  /// Appended to every timer name: "@<vm>" while real_mirror works on one
  /// VM, so each VM's calls are a timed unit of their own (README.md).
  std::string unit;
  std::map<std::string, double> counts;  // deterministic for a seed
  std::map<std::string, double> profile; // SelfProfiler buckets
  std::map<std::string, double> io;      // real_mirror guest I/O figures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  std::vector<std::string> errors;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ull;
    }
  }
  void mix(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  /// Folds content in 8-byte words (a trailing partial word is zero-padded).
  void mix_bytes(std::span<const std::byte> bytes) {
    for (std::size_t i = 0; i < bytes.size(); i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes.data() + i, std::min<std::size_t>(8, bytes.size() - i));
      digest = mix64(digest ^ w);
    }
  }
  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }

  /// Times `fn()` into timers[name + unit] (accumulating) and returns its
  /// result.
  template <typename Fn>
  auto timed(const std::string& name, Fn&& fn) {
    const auto t0 = Clock::now();
    auto r = fn();
    timers[name + unit] += since(t0);
    return r;
  }
  /// Seconds in one timer, summed over its units.
  double timer_total(const std::string& name) const {
    double s = 0;
    for (const auto& [k, v] : timers) {
      if (k == name || k.starts_with(name + "@")) s += v;
    }
    return s;
  }
};

// ---- Simulated workloads -----------------------------------------------

/// Folds a phase's per-VM times into the digest; a VM whose time is not
/// positive finished no later than the phase started (a lost task).
void check_phase(Outcome& o, const char* phase, const SampleSet& per_vm,
                 double completion) {
  o.attempted += per_vm.count();
  for (double s : per_vm.samples()) {
    o.mix(s);
    if (!(s > 0)) o.fail(std::string(phase) + ": a VM finished at its phase start");
  }
  o.mix(completion);
  if (!(completion > 0)) o.fail(std::string(phase) + ": completion is not positive");
}

void check_deploy(Outcome& o, const char* phase,
                  const cloud::MultideployMetrics& m) {
  check_phase(o, phase, m.boot_seconds, m.completion_seconds);
  o.mix(m.broadcast_seconds);
  o.mix(static_cast<std::uint64_t>(m.network_traffic));
}

void run_deploy(Outcome& o, cloud::Cloud& c, const char* timer, std::size_t n,
                const vm::BootTraceParams& tp) {
  const auto m = o.timed(timer, [&] { return c.multideploy(n, tp); });
  check_deploy(o, timer, m);
}

/// A phase that returned an error fails every VM it was meant to cover.
void phase_failed(Outcome& o, const cloud::Cloud& c, const char* phase,
                  const Status& st) {
  o.attempted += c.instance_count();
  o.failed += c.instance_count();
  o.errors.push_back(std::string(phase) + ": " + st.to_string());
}

void run_snapshot(Outcome& o, cloud::Cloud& c) {
  const auto m = o.timed("cloud.snapshot_s", [&] { return c.multisnapshot(); });
  if (!m.is_ok()) return phase_failed(o, c, "multisnapshot", m.status());
  check_phase(o, "cloud.snapshot_s", m->snapshot_seconds, m->completion_seconds);
  o.mix(static_cast<std::uint64_t>(m->network_traffic));
  o.mix(static_cast<std::uint64_t>(m->repository_growth));
}

void run_resume(Outcome& o, cloud::Cloud& c, const vm::BootTraceParams& tp) {
  const auto m = o.timed("cloud.resume_s", [&] { return c.resume_boot(tp); });
  if (!m.is_ok()) return phase_failed(o, c, "resume_boot", m.status());
  check_deploy(o, "cloud.resume_s", *m);
}

/// Calls every obs exporter. With tracing and the timeline off these return
/// empty output at once, which is the point: their times read ≈0 on the
/// workloads that bypass obs.
void run_exports(Outcome& o, cloud::Cloud& c) {
  const std::string jsonl = o.timed("obs.export_s", [&] { return c.trace_jsonl(); });
  auto events = o.timed("obs.parse_s", [&] { return obs::parse_trace_jsonl(jsonl); });
  if (!events.is_ok()) {
    o.fail("parse_trace_jsonl: " + events.status().to_string());
  } else {
    const std::string attribution = o.timed("obs.critpath_s", [&] {
      return obs::attribution_json(obs::analyze_critical_paths(*events));
    });
    o.counts["obs.attribution_bytes"] += static_cast<double>(attribution.size());
  }
  o.attempted += 1;
  const std::string timeline = o.timed("obs.timeline_s", [&] { return c.timeline_json(); });
  o.counts["obs.timeline_bytes"] += static_cast<double>(timeline.size());
  o.timed("obs.metrics_s", [&] { return c.metrics_json(); });
}

/// Reads one Cloud's public counters into the outcome (summed over the
/// workload's Clouds; high-water marks take the maximum).
void read_counters(Outcome& o, cloud::Cloud& c) {
  sim::Engine& e = c.engine();
  auto& n = o.counts;
  n["sim.events"] += static_cast<double>(e.events_processed());
  n["sim.queue_depth_hw"] = std::max(
      n["sim.queue_depth_hw"], static_cast<double>(e.queue_depth_high_water()));
  n["sim.wait_records"] += static_cast<double>(e.wait_records_created());
  // metrics_json() ran in run_exports, so the gauges are current. Reading an
  // absent metric registers it as 0, which is harmless after the export.
  obs::Registry& reg = c.obs().metrics;
  n["net.messages"] += reg.gauge("net.messages").value();
  n["net.payload_bytes"] += reg.gauge("net.payload_bytes").value();
  n["net.connections"] += reg.gauge("net.connections").value();
  n["storage.cache_hits"] += static_cast<double>(reg.counter("disk.cache_hits").value());
  n["storage.cache_misses"] +=
      static_cast<double>(reg.counter("disk.cache_misses").value());
  n["storage.platter_bytes"] += reg.gauge("disk.platter_bytes").value();
  for (const char* k : {"blob.locates", "blob.fetches", "blob.commits"}) {
    n[k] += static_cast<double>(reg.counter(k).value());
  }
  n["blob.metadata_node_visits"] += reg.gauge("blob.metadata_node_visits").value();
  n["blob.metadata_nodes"] += reg.gauge("blob.metadata_nodes").value();
  n["blob.stored_bytes"] += reg.gauge("blob.stored_bytes").value();
  n["obs.trace_recorded"] += static_cast<double>(c.obs().trace.recorded_total());
  n["obs.trace_dropped_ring"] += static_cast<double>(c.obs().trace.dropped_ring());
}

/// Adds the mirror counters of the current fleet. collect_metrics() sums
/// over the instances of the last deploy or resume, so call this before
/// resume_boot replaces the fleet and again at the end.
void read_fleet_mirror(Outcome& o, cloud::Cloud& c) {
  c.collect_metrics();
  obs::Registry& reg = c.obs().metrics;
  o.counts["mirror.remote_fetches"] += reg.gauge("mirror.remote_fetches").value();
  o.counts["mirror.remote_bytes"] += reg.gauge("mirror.remote_bytes_fetched").value();
  o.counts["mirror.gapfill_bytes"] += reg.gauge("mirror.gapfill_bytes").value();
}

/// Deploy-phase fetch volume against the distinct bytes the guests read,
/// for mirror.fetch_useful_ratio.
void read_deploy_fetch(Outcome& o, cloud::Cloud& c, const vm::BootTrace& trace,
                       std::size_t n) {
  c.collect_metrics();
  o.counts["mirror.deploy_remote_bytes"] =
      c.obs().metrics.gauge("mirror.remote_bytes_fetched").value();
  o.counts["mirror.deploy_unique_read_bytes"] =
      static_cast<double>(trace.unique_read_bytes() * n);
}

/// The profiled mode's SelfProfiler; every call is a no-op in plain mode.
struct Profiler {
  explicit Profiler(bool enabled) : on(enabled) {}
  bool on;
  obs::SelfProfiler prof;
  void attach(cloud::Cloud& c) {
    if (!on) return;
    c.engine().set_profiler(&prof);
    c.obs().trace.set_profiler(&prof);
  }
  void detach(cloud::Cloud& c) {
    c.engine().set_profiler(nullptr);
    c.obs().trace.set_profiler(nullptr);
  }
  void report(Outcome& o) const {
    if (!on) return;
    o.profile["sim.queue_ops_s"] = prof.seconds(obs::SelfProfiler::kQueueOps);
    o.profile["sim.dispatch_s"] = prof.dispatch_seconds();
    o.profile["sim.user_work_s"] = prof.user_seconds();
    o.profile["obs.tracer_s"] = prof.seconds(obs::SelfProfiler::kTracer);
  }
};

/// Set-up runs this many times per repetition and setup_s is the fastest,
/// like every other time (README.md, "Bounds and measured spread"). Only
/// the last set-up is kept and measured.
constexpr int kSetups = 5;

/// Timed repetitions per process, at least, whatever the time budget says.
constexpr int kMinTimedReps = 3;

template <typename Make>
auto repeated_setup(Outcome& o, Make&& make) {
  std::optional<decltype(make())> kept;
  for (int i = 0; i < kSetups; ++i) {
    kept.reset();
    const auto t0 = Clock::now();
    kept.emplace(make());
    const double s = since(t0);
    o.setup_s = i == 0 ? s : std::min(o.setup_s, s);
  }
  return std::move(*kept);
}

struct SimSetup {
  vm::BootTrace trace;
  std::unique_ptr<cloud::Cloud> cloud;
  std::unique_ptr<cloud::Cloud> baseline;  // paper_baselines' taktuk Cloud
};

/// Builds a Cloud with the benchmark's observability settings, overriding
/// whatever VMSTORM_TRACE / VMSTORM_TIMELINE say.
std::unique_ptr<cloud::Cloud> make_cloud(const cloud::CloudConfig& cfg,
                                         cloud::Strategy s, bool traced) {
  auto c = std::make_unique<cloud::Cloud>(cfg, s);
  c->obs().trace.set_enabled(traced);
  if (traced) {
    if (!c->timeline_enabled()) c->enable_timeline();
  } else {
    c->obs().timeline.set_enabled(false);
  }
  return c;
}

/// The §5.1 testbed (110 VMs, 2 GiB image) with the §5.2 boot trace cut to
/// a quarter of its read, write and CPU volume, so one repetition takes a
/// second or two and a run holds many; or a cut-down version for the
/// self-test.
struct PaperInputs {
  std::size_t n;
  cloud::CloudConfig cfg;
  vm::BootTraceParams tp;
};

PaperInputs paper_inputs(const Options& opt) {
  PaperInputs in{opt.tiny ? 8u : 110u, {}, bench::paper_boot_params()};
  in.cfg = bench::paper_cloud_config(in.n);
  in.cfg.seed = opt.seed;
  const std::uint64_t share = opt.tiny ? 16 : 4;
  in.tp.read_volume /= share;
  in.tp.write_volume /= share;
  in.tp.cpu_seconds /= static_cast<double>(share);
  return in;
}

Outcome paper_baselines(const Options& opt) {
  Outcome o;
  const auto [n, cfg, tp] = paper_inputs(opt);

  SimSetup s = repeated_setup(o, [&] {
    return SimSetup{vm::BootTrace::generate(tp, opt.seed),
                    make_cloud(cfg, cloud::Strategy::kQcowOverPvfs, false),
                    make_cloud(cfg, cloud::Strategy::kPrepropagation, false)};
  });
  const vm::BootTrace& trace = s.trace;
  cloud::Cloud* taktuk = s.baseline.get();
  cloud::Cloud* qcow = s.cloud.get();

  Profiler p{opt.profiled};
  p.attach(*taktuk);
  p.attach(*qcow);
  run_deploy(o, *taktuk, "bcast.deploy_s", n, tp);
  run_deploy(o, *qcow, "cloud.deploy_s", n, tp);
  run_snapshot(o, *qcow);
  run_resume(o, *qcow, tp);
  p.detach(*taktuk);
  p.detach(*qcow);
  for (cloud::Cloud* c : {taktuk, qcow}) {
    run_exports(o, *c);
    read_counters(o, *c);
  }
  p.report(o);
  o.counts["vm.requests"] = static_cast<double>(trace.request_count() * n);
  return o;
}

Outcome paper_ours_traced(const Options& opt) {
  Outcome o;
  const auto [n, cfg, tp] = paper_inputs(opt);

  SimSetup s = repeated_setup(o, [&] {
    return SimSetup{vm::BootTrace::generate(tp, opt.seed),
                    make_cloud(cfg, cloud::Strategy::kOurs, true), nullptr};
  });
  const vm::BootTrace& trace = s.trace;
  cloud::Cloud* c = s.cloud.get();

  Profiler p{opt.profiled};
  p.attach(*c);
  run_deploy(o, *c, "cloud.deploy_s", n, tp);
  read_deploy_fetch(o, *c, trace, n);
  run_snapshot(o, *c);
  p.detach(*c);
  run_exports(o, *c);
  read_counters(o, *c);
  read_fleet_mirror(o, *c);
  p.report(o);
  o.counts["vm.requests"] = static_cast<double>(trace.request_count() * n);
  return o;
}

// ---- Real data plane -----------------------------------------------------

/// Content VM `vm` writes at absolute offset `off`: a pattern distinct from
/// the base image's, so a read that returns base bytes where the guest
/// wrote (or the reverse) is caught.
std::uint64_t write_seed(std::uint64_t seed, std::size_t vm) {
  return mix64(seed ^ (0x5eedull + vm));
}

/// blob::pattern_byte for a whole range, one mix64 per 8-byte word instead
/// of per byte (verification would otherwise outweigh the timed calls).
/// Cross-checked against pattern_byte at both ends, so a change to the
/// library's pattern shows up as a failure rather than as wrong bytes.
bool fill_pattern(std::uint64_t seed, Bytes off, std::span<std::byte> out) {
  std::size_t j = 0;
  while (j < out.size()) {
    const Bytes x = off + j;
    const std::uint64_t word = mix64(seed ^ (x >> 3));
    if ((x & 7) == 0 && out.size() - j >= 8) {
      std::memcpy(out.data() + j, &word, 8);  // little-endian byte order
      j += 8;
      continue;
    }
    for (Bytes b = x & 7; b < 8 && j < out.size(); ++b, ++j) {
      out[j] = static_cast<std::byte>((word >> (b * 8)) & 0xff);
    }
  }
  return out.empty() || (out.front() == blob::pattern_byte(seed, off) &&
                         out.back() == blob::pattern_byte(seed, off + out.size() - 1));
}

/// True iff `got` (read at `off`) is what the guest should see: its own
/// writes where `written` covers, the base image elsewhere.
bool reads_back(std::uint64_t base_seed, std::uint64_t vm_seed,
                const RangeSet& written, Bytes off, std::span<const std::byte> got,
                std::vector<std::byte>& scratch) {
  const ByteRange r{off, off + got.size()};
  scratch.resize(got.size());
  bool ok = true;
  for (const ByteRange& w : written.present_within(r)) {
    ok &= fill_pattern(vm_seed, w.lo, std::span(scratch).subspan(w.lo - off, w.size()));
  }
  for (const ByteRange& g : written.missing_within(r)) {
    ok &= fill_pattern(base_seed, g.lo, std::span(scratch).subspan(g.lo - off, g.size()));
  }
  return ok && std::memcmp(scratch.data(), got.data(), got.size()) == 0;
}

struct RealSetup {
  vm::BootTrace trace;
  std::unique_ptr<blob::BlobStore> store;
  blob::BlobId image;
  blob::Version base;
};

struct VmSnapshot {
  blob::BlobId blob = blob::kInvalidBlob;
  blob::Version version = 0;
  RangeSet written;
};

Outcome real_mirror(const Options& opt) {
  Outcome o;
  const std::size_t vms = opt.tiny ? 4 : 8;
  const Bytes image_size = opt.tiny ? 64_MiB : 512_MiB;
  vm::BootTraceParams tp;
  tp.image_size = image_size;
  tp.read_volume = opt.tiny ? 4_MiB : 24_MiB;
  tp.write_volume = opt.tiny ? 1_MiB : 4_MiB;

  RealSetup s = repeated_setup(o, [&] {
    blob::StoreConfig sc;
    sc.providers = 16;
    sc.seed = opt.seed;
    RealSetup r{vm::BootTrace::generate(tp, opt.seed),
                std::make_unique<blob::BlobStore>(sc), blob::kInvalidBlob, 0};
    // A set-up failure is a broken benchmark, not a measured failure:
    // value() throws and the process exits non-zero.
    r.image = r.store->create(image_size, 256_KiB).value();
    r.base = r.store->write_pattern(r.image, 0, 0, image_size, opt.seed).value();
    return r;
  });
  const vm::BootTrace& trace = s.trace;
  blob::BlobStore& store = *s.store;
  const blob::BlobId image = s.image;
  const blob::Version base = s.base;

  namespace fs = std::filesystem;
  const auto remove_mirror = [](const std::string& path) {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".meta", ec);
  };
  SampleSet pread_us, commit_ms;
  Bytes read_bytes = 0, write_bytes = 0;
  std::vector<std::byte> buf, expect;
  const auto check = [&o](const Status& st, const std::string& what) {
    ++o.attempted;
    if (!st.is_ok()) o.fail(what + ": " + st.to_string());
    return st.is_ok();
  };
  const auto pread = [&](mirror::VirtualDisk& d, Bytes off, std::span<std::byte> out) {
    const auto t = Clock::now();
    const Status st = d.pread(off, out);
    const double s = since(t);
    o.timers["mirror.pread_s" + o.unit] += s;
    pread_us.add(s * 1e6);
    read_bytes += out.size();
    return st;
  };
  const auto open = [&](blob::BlobId b, blob::Version v, const std::string& path) {
    mirror::VirtualDiskOptions vo;
    vo.local_path = path;
    return o.timed("mirror.open_s",
                   [&] { return mirror::VirtualDisk::open(store, b, v, vo); });
  };
  const auto stats_of = [&o](const mirror::VirtualDisk& d) {
    o.counts["mirror.remote_fetches"] += static_cast<double>(d.stats().remote_fetches);
    o.counts["mirror.remote_bytes"] += static_cast<double>(d.stats().remote_bytes_fetched);
  };

  // Boot: each VM in turn replays the trace on its own mirror, then
  // snapshots (CLONE + COMMIT) and closes.
  std::vector<VmSnapshot> snaps(vms);
  for (std::size_t i = 0; i < vms; ++i) {
    o.unit = "@" + std::to_string(i);
    const std::string path = opt.tmpdir + "/vm" + std::to_string(i) + ".img";
    remove_mirror(path);
    auto disk = open(image, base, path);
    if (!check(disk.status(), "VirtualDisk::open")) continue;
    mirror::VirtualDisk& d = **disk;
    const std::uint64_t wseed = write_seed(opt.seed, i);
    VmSnapshot& snap = snaps[i];
    for (const vm::BootOp& op : trace.ops()) {
      if (op.kind == vm::BootOp::Kind::kCpu) continue;
      buf.resize(op.length);
      if (op.kind == vm::BootOp::Kind::kRead) {
        if (!check(pread(d, op.offset, buf), "pread")) continue;
        if (!reads_back(opt.seed, wseed, snap.written, op.offset, buf, expect)) {
          o.fail("pread returned wrong bytes");
        }
      } else {
        if (!fill_pattern(wseed, op.offset, buf)) o.fail("fill_pattern != pattern_byte");
        const Status st = o.timed("mirror.pwrite_s", [&] { return d.pwrite(op.offset, buf); });
        write_bytes += op.length;
        if (check(st, "pwrite")) snap.written.insert({op.offset, op.offset + op.length});
      }
    }
    o.counts["mirror.deploy_unique_read_bytes"] +=
        static_cast<double>(trace.unique_read_bytes());
    o.counts["mirror.deploy_remote_bytes"] +=
        static_cast<double>(d.stats().remote_bytes_fetched);
    const auto ts = Clock::now();
    auto cl = o.timed("mirror.clone_s", [&] { return d.clone(); });
    auto cm = o.timed("mirror.commit_s", [&] { return d.commit(); });
    commit_ms.add(since(ts) * 1e3);
    if (check(cl.status(), "clone") && check(cm.status(), "commit")) {
      snap.blob = *cl;
      snap.version = *cm;
      o.counts["blob.commits"] += 1;
      o.mix(static_cast<std::uint64_t>(snap.blob));
      o.mix(static_cast<std::uint64_t>(snap.version));
    }
    check(o.timed("mirror.close_s", [&] { return d.close(); }), "close");
    stats_of(d);
    disk->reset();
    remove_mirror(path);
  }
  o.counts["blob.stored_bytes"] = static_cast<double>(store.stored_bytes());
  o.mix(static_cast<std::uint64_t>(store.stored_bytes()));

  // Readback: every written range through a fresh mirror of the snapshot
  // and straight from the store; the base image must still read pristine.
  for (std::size_t i = 0; i < vms; ++i) {
    const VmSnapshot& snap = snaps[i];
    if (snap.blob == blob::kInvalidBlob) continue;
    const std::uint64_t wseed = write_seed(opt.seed, i);
    o.unit = "@" + std::to_string(i);
    const std::string path = opt.tmpdir + "/snap" + std::to_string(i) + ".img";
    remove_mirror(path);
    auto disk = open(snap.blob, snap.version, path);
    if (!check(disk.status(), "VirtualDisk::open snapshot")) continue;
    for (const ByteRange& w : snap.written.to_vector()) {
      buf.resize(w.size());
      if (check(pread(**disk, w.lo, buf), "snapshot pread") &&
          !reads_back(opt.seed, wseed, snap.written, w.lo, buf, expect)) {
        o.fail("snapshot mirror read back wrong bytes");
      }
      const Status st = o.timed("blob.read_s",
                                [&] { return store.read(snap.blob, snap.version, w.lo, buf); });
      if (check(st, "BlobStore::read snapshot") &&
          !reads_back(opt.seed, wseed, snap.written, w.lo, buf, expect)) {
        o.fail("BlobStore::read of the snapshot returned wrong bytes");
      }
      o.mix(static_cast<std::uint64_t>(w.lo));
      o.mix_bytes(buf);
      const Status bst =
          o.timed("blob.read_s", [&] { return store.read(image, base, w.lo, buf); });
      if (check(bst, "BlobStore::read base") &&
          !reads_back(opt.seed, wseed, RangeSet{}, w.lo, buf, expect)) {
        o.fail("base image no longer reads pristine");
      }
    }
    check(o.timed("mirror.close_s", [&] { return (*disk)->close(); }), "close snapshot");
    stats_of(**disk);
    disk->reset();
    remove_mirror(path);
  }

  o.unit.clear();
  o.counts["vm.requests"] = static_cast<double>(trace.request_count() * vms);
  o.counts["blob.metadata_nodes"] = static_cast<double>(store.metadata_nodes());
  o.counts["blob.metadata_node_visits"] = static_cast<double>(store.metadata_node_visits());
  o.counts["mirror.pread_calls"] = static_cast<double>(pread_us.count());
  o.io["mirror.pread_us_p50"] = pread_us.percentile(50);
  o.io["mirror.pread_us_p99"] = pread_us.percentile(99);
  o.io["mirror.commit_ms_p50"] = commit_ms.percentile(50);
  const auto mib_per_s = [&o](Bytes bytes, const char* timer) {
    const double s = o.timer_total(timer);
    return s > 0 ? static_cast<double>(bytes) / (1 << 20) / s : 0.0;
  };
  o.io["mirror.read_mib_per_s"] = mib_per_s(read_bytes, "mirror.pread_s");
  o.io["mirror.write_mib_per_s"] = mib_per_s(write_bytes, "mirror.pwrite_s");
  return o;
}

// ---- Output ----------------------------------------------------------------

void write_map(obs::JsonWriter& w, const char* key,
               const std::map<std::string, double>& m) {
  w.key(key).begin_object();
  for (const auto& [k, v] : m) w.key(k).value(v);
  w.end_object();
}

/// The host's speed, for run.py to scale host times by (README.md, "Bounds
/// and measured spread"): seconds for a fixed piece of work that shares no
/// code with the library, a small discrete-event loop over a binary heap,
/// a hash map and short vectors, so it slows down with the host the way the
/// simulator does. Returns the fastest of three passes.
double calibrate() {
  double fastest = 0;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    using Ev = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q;
    std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> state;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint32_t i = 0; i < 4096; ++i) q.emplace(next() % 1000, i);
    for (int i = 0; i < 100000; ++i) {
      const auto [t, id] = q.top();
      q.pop();
      auto& v = state[id % 16384];
      v.push_back(t);
      if (v.size() > 8) {
        sink += v.front();
        v = {};
      }
      q.emplace(t + next() % 1000, static_cast<std::uint32_t>(next() % 65536));
    }
    sink += state.size();
    const double s = since(t0);
    fastest = pass == 0 ? s : std::min(fastest, s);
  }
  // Uses the result, so the compiler cannot drop the loop.
  if (sink == 0) std::fprintf(stderr, "calibration: empty\n");
  return fastest;
}

using Workload = Outcome (*)(const Options&);

Workload find_workload(const std::string& name) {
  if (name == "paper_baselines") return paper_baselines;
  if (name == "paper_ours_traced") return paper_ours_traced;
  if (name == "real_mirror") return real_mirror;
  return nullptr;
}

/// Prints one repetition as one JSON line.
void print_rep(const Options& opt, int rep, bool warmup, const Outcome& o) {
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(o.digest));
  obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(opt.workload);
  w.key("rep").value(static_cast<std::uint64_t>(rep));
  w.key("mode").value(opt.profiled ? "profiled" : "plain");
  w.key("warmup").value(warmup);
  w.key("setup_s").value(o.setup_s);
  w.key("calibration_s").value(calibrate());
  w.key("peak_rss_bytes").value(obs::peak_rss_bytes());
  w.key("attempted").value(o.attempted);
  w.key("failed").value(o.failed);
  w.key("digest").value(digest);
  write_map(w, "timers", o.timers);
  write_map(w, "counts", o.counts);
  write_map(w, "profile", o.profile);
  write_map(w, "io", o.io);
  w.key("errors").begin_array();
  for (const std::string& e : o.errors) w.value(e);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr,
                 "usage: %s <workload> <seed> <plain|alternate> <full|tiny> <tmpdir> "
                 "<seconds>\n",
                 argv[0]);
    return 2;
  }
  Options opt;
  opt.workload = argv[1];
  opt.seed = std::strtoull(argv[2], nullptr, 10);
  const bool alternate = std::strcmp(argv[3], "alternate") == 0;
  opt.tiny = std::strcmp(argv[4], "tiny") == 0;
  opt.tmpdir = argv[5];
  const double seconds = std::strtod(argv[6], nullptr);
  const Workload workload = find_workload(opt.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  // A plain warm-up repetition, then timed ones while the next still fits.
  const auto start = Clock::now();
  double longest = 0;
  for (int rep = 0, timed = 0;; ++rep) {
    const bool warmup = rep == 0;
    if (!warmup && timed >= kMinTimedReps && since(start) + longest > seconds) break;
    opt.profiled = alternate && !warmup && timed % 2 == 1;
    const auto t0 = Clock::now();
    const Outcome o = workload(opt);
    longest = std::max(longest, since(t0));
    print_rep(opt, rep, warmup, o);
    if (!warmup) ++timed;
  }
  return 0;
}

}  // namespace
}  // namespace vmstorm::perfbench

int main(int argc, char** argv) { return vmstorm::perfbench::run(argc, argv); }
