#include "apps/repo_cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "blob/persist.hpp"
#include "blob/store.hpp"
#include "common/file_io.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/phases.hpp"

namespace vmstorm::apps {

namespace {

constexpr Bytes kDefaultChunk = 256_KiB;

Result<std::uint64_t> parse_u64(const std::string& text) {
  // Digits only: strtoull would also skip blanks and negate a '-'.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return invalid_argument("not a number: " + text);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0') return invalid_argument("not a number: " + text);
  // strtoull saturates at 2^64-1 rather than fail.
  if (errno == ERANGE) return out_of_range("number too large: " + text);
  return static_cast<std::uint64_t>(v);
}

struct Parsed {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;  // --name value / --name
};

Result<Parsed> parse_args(const std::vector<std::string>& args) {
  if (args.empty()) return invalid_argument("no command; try: " + repo_cli_usage());
  Parsed p;
  p.command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) == 0) {
      const std::string name = args[i].substr(2);
      if (name == "dedup") {
        p.flags[name] = "1";
      } else {
        if (i + 1 >= args.size()) {
          return invalid_argument("flag --" + name + " needs a value");
        }
        p.flags[name] = args[++i];
      }
    } else {
      p.positional.push_back(args[i]);
    }
  }
  return p;
}

Result<std::string> cmd_init(const Parsed& p) {
  if (p.positional.size() != 1) return invalid_argument("init <repo>");
  blob::StoreConfig cfg;
  cfg.providers = 8;
  if (auto it = p.flags.find("providers"); it != p.flags.end()) {
    VMSTORM_ASSIGN_OR_RETURN(n, parse_u64(it->second));
    if (n == 0) return invalid_argument("--providers must be > 0");
    cfg.providers = n;
  }
  if (auto it = p.flags.find("replication"); it != p.flags.end()) {
    VMSTORM_ASSIGN_OR_RETURN(r, parse_u64(it->second));
    cfg.replication = r;
  }
  cfg.dedup = p.flags.count("dedup") > 0;
  blob::BlobStore store(cfg);
  VMSTORM_RETURN_IF_ERROR(blob::save_store_file(store, p.positional[0]));
  std::ostringstream os;
  os << "initialized repository " << p.positional[0] << " (" << cfg.providers
     << " providers, replication " << cfg.replication
     << (cfg.dedup ? ", dedup on" : "") << ")\n";
  return os.str();
}

Result<std::string> cmd_ls(const Parsed& p) {
  if (p.positional.size() != 1) return invalid_argument("ls <repo>");
  VMSTORM_ASSIGN_OR_RETURN(store, blob::load_store_file(p.positional[0]));
  Table t({"blob", "size", "chunk", "latest", "versions"});
  // Blob ids are dense from 1; probe until the directory runs out.
  std::size_t seen = 0;
  for (blob::BlobId id = 1; seen < store->blob_count() && id < 1u << 20; ++id) {
    auto info = store->info(id);
    if (!info.is_ok()) continue;
    ++seen;
    t.add_row({std::to_string(id),
               format_bytes(static_cast<double>(info->size)),
               format_bytes(static_cast<double>(info->chunk_size)),
               std::to_string(info->latest),
               std::to_string(info->latest + 1)});
  }
  std::ostringstream os;
  os << t.to_string() << store->blob_count() << " blob(s), "
     << format_bytes(static_cast<double>(store->stored_bytes()))
     << " stored\n";
  return os.str();
}

Result<std::string> cmd_stat(const Parsed& p) {
  if (p.positional.size() != 2) return invalid_argument("stat <repo> <blob>");
  VMSTORM_ASSIGN_OR_RETURN(store, blob::load_store_file(p.positional[0]));
  VMSTORM_ASSIGN_OR_RETURN(id, parse_u64(p.positional[1]));
  VMSTORM_ASSIGN_OR_RETURN(info, store->info(static_cast<blob::BlobId>(id)));
  std::ostringstream os;
  os << "blob " << id << ": size "
     << format_bytes(static_cast<double>(info.size)) << ", "
     << info.chunk_count << " chunks of "
     << format_bytes(static_cast<double>(info.chunk_size)) << ", versions 0.."
     << info.latest << "\n";
  return os.str();
}

Result<std::string> cmd_upload(const Parsed& p) {
  if (p.positional.size() != 2) return invalid_argument("upload <repo> <file>");
  VMSTORM_ASSIGN_OR_RETURN(store, blob::load_store_file(p.positional[0]));
  VMSTORM_ASSIGN_OR_RETURN(data, read_file(p.positional[1]));
  if (data.empty()) return invalid_argument("refusing to upload an empty file");
  Bytes chunk = kDefaultChunk;
  if (auto it = p.flags.find("chunk"); it != p.flags.end()) {
    VMSTORM_ASSIGN_OR_RETURN(c, parse_size(it->second));
    chunk = c;
  }
  VMSTORM_ASSIGN_OR_RETURN(id, store->create(data.size(), chunk));
  VMSTORM_ASSIGN_OR_RETURN(
      v, store->write(id, 0, 0, std::as_bytes(std::span(data))));
  VMSTORM_RETURN_IF_ERROR(blob::save_store_file(*store, p.positional[0]));
  std::ostringstream os;
  os << "uploaded " << p.positional[1] << " as blob " << id << " version " << v
     << " (" << format_bytes(static_cast<double>(data.size())) << ")\n";
  return os.str();
}

Result<std::string> cmd_download(const Parsed& p) {
  if (p.positional.size() != 4) {
    return invalid_argument("download <repo> <blob> <version> <file>");
  }
  VMSTORM_ASSIGN_OR_RETURN(store, blob::load_store_file(p.positional[0]));
  VMSTORM_ASSIGN_OR_RETURN(id, parse_u64(p.positional[1]));
  VMSTORM_ASSIGN_OR_RETURN(version, parse_u64(p.positional[2]));
  VMSTORM_ASSIGN_OR_RETURN(info, store->info(static_cast<blob::BlobId>(id)));
  std::string data(info.size, '\0');
  VMSTORM_RETURN_IF_ERROR(store->read(static_cast<blob::BlobId>(id),
                                      static_cast<blob::Version>(version), 0,
                                      std::as_writable_bytes(std::span(data))));
  VMSTORM_RETURN_IF_ERROR(write_file(p.positional[3], data));
  std::ostringstream os;
  os << "downloaded blob " << id << " v" << version << " to " << p.positional[3]
     << " (" << format_bytes(static_cast<double>(data.size())) << ")\n";
  return os.str();
}

Result<std::string> cmd_clone(const Parsed& p) {
  if (p.positional.size() != 3) {
    return invalid_argument("clone <repo> <blob> <version>");
  }
  VMSTORM_ASSIGN_OR_RETURN(store, blob::load_store_file(p.positional[0]));
  VMSTORM_ASSIGN_OR_RETURN(id, parse_u64(p.positional[1]));
  VMSTORM_ASSIGN_OR_RETURN(version, parse_u64(p.positional[2]));
  VMSTORM_ASSIGN_OR_RETURN(
      clone, store->clone(static_cast<blob::BlobId>(id),
                          static_cast<blob::Version>(version)));
  VMSTORM_RETURN_IF_ERROR(blob::save_store_file(*store, p.positional[0]));
  std::ostringstream os;
  os << "cloned blob " << id << " v" << version << " as blob " << clone
     << " (zero data copied)\n";
  return os.str();
}

Result<std::string> cmd_patch(const Parsed& p) {
  if (p.positional.size() != 4) {
    return invalid_argument("patch <repo> <blob> <offset> <file>");
  }
  VMSTORM_ASSIGN_OR_RETURN(store, blob::load_store_file(p.positional[0]));
  VMSTORM_ASSIGN_OR_RETURN(id, parse_u64(p.positional[1]));
  VMSTORM_ASSIGN_OR_RETURN(offset, parse_size(p.positional[2]));
  VMSTORM_ASSIGN_OR_RETURN(data, read_file(p.positional[3]));
  VMSTORM_ASSIGN_OR_RETURN(info, store->info(static_cast<blob::BlobId>(id)));
  VMSTORM_ASSIGN_OR_RETURN(
      v, store->write(static_cast<blob::BlobId>(id), info.latest, offset,
                      std::as_bytes(std::span(data))));
  VMSTORM_RETURN_IF_ERROR(blob::save_store_file(*store, p.positional[0]));
  std::ostringstream os;
  os << "patched blob " << id << " at offset " << offset << ": new version "
     << v << "\n";
  return os.str();
}

Result<std::string> cmd_critpath(const Parsed& p) {
  if (p.positional.size() != 1) {
    return invalid_argument("critpath <trace.jsonl>");
  }
  VMSTORM_ASSIGN_OR_RETURN(text, read_file(p.positional[0]));
  VMSTORM_ASSIGN_OR_RETURN(events, obs::parse_trace_jsonl(text));
  const obs::CritReport report = obs::analyze_critical_paths(events);
  return obs::attribution_table(report);
}

Result<std::string> cmd_engine_stats(const Parsed& p) {
  if (p.positional.size() != 1) {
    return invalid_argument("engine-stats <BENCH_engine.json>");
  }
  VMSTORM_ASSIGN_OR_RETURN(text, read_file(p.positional[0]));
  VMSTORM_ASSIGN_OR_RETURN(doc, obs::parse_json(text));
  if (doc["schema"].as_string() != "vmstorm-engine-v1") {
    return invalid_argument("not a vmstorm-engine-v1 artifact (schema: \"" +
                            doc["schema"].as_string() + "\")");
  }

  std::ostringstream os;
  os << doc["title"].as_string() << " ("
     << (doc["quick"].as_bool() ? "quick" : "full") << " mode, config "
     << doc["config"]["fingerprint"].as_string() << ")\n\n";

  // Deterministic engine counters — same for every arm by construction.
  const obs::JsonValue& sim = doc["sim"];
  Table counters({"engine counter", "value"});
  for (const auto& [key, v] : sim.members()) {
    if (!v.is_number()) continue;  // nested trace section rendered below
    counters.add_row({key, Table::num(v.as_number(), 0)});
  }
  const obs::JsonValue& trace = sim["trace"];
  for (const auto& [key, v] : trace.members()) {
    counters.add_row({"trace." + key, Table::num(v.as_number(), 0)});
  }
  os << counters.to_string() << "\n";

  // Tracing ablation: host-time costs per arm, overhead vs tracing off.
  const obs::JsonValue& arms = doc["overhead"]["arms"];
  double off_wall = 0;
  for (const obs::JsonValue& arm : arms.items()) {
    if (arm["name"].as_string() == "off") off_wall = arm["wall_seconds"].as_number();
  }
  Table ablation({"arm", "wall s", "events/s", "overhead", "tracer s",
                  "dispatch s", "peak rss", "events recorded"});
  for (const obs::JsonValue& arm : arms.items()) {
    const double wall = arm["wall_seconds"].as_number();
    const std::string overhead =
        arm["name"].as_string() == "off" || off_wall <= 0
            ? "-"
            : Table::num((wall - off_wall) / off_wall * 100.0, 1) + "%";
    ablation.add_row(
        {arm["name"].as_string(), Table::num(wall, 3),
         Table::num(arm["events_per_sec"].as_number(), 0), overhead,
         Table::num(arm["phases"]["tracer"].as_number(), 3),
         Table::num(arm["phases"]["dispatch"].as_number(), 3),
         format_bytes(arm["peak_rss_bytes"].as_number()),
         Table::num(arm["trace"]["recorded"].as_number(), 0)});
  }
  os << ablation.to_string();
  return os.str();
}

// ---- `timeline` rendering ------------------------------------------------

std::vector<double> json_doubles(const obs::JsonValue& arr) {
  std::vector<double> out;
  out.reserve(arr.items().size());
  for (const obs::JsonValue& v : arr.items()) out.push_back(v.as_number());
  return out;
}

/// Bucket-averaged sparkline over at most `width` columns; `hi` is the
/// full-scale value (pass 1.0 for utilization series so the glyphs encode
/// absolute level, or a series max for unbounded ones).
std::string sparkline(const std::vector<double>& v, std::size_t width,
                      double hi) {
  static const char kRamp[] = " .:-=+*#%@";  // 10 levels
  if (v.empty()) return "";
  std::string out;
  const std::size_t cols = std::min(width, v.size());
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t b = c * v.size() / cols;
    const std::size_t e = std::max(b + 1, (c + 1) * v.size() / cols);
    double acc = 0;
    for (std::size_t i = b; i < e; ++i) acc += v[i];
    const double m = acc / static_cast<double>(e - b);
    int idx = hi > 0 ? static_cast<int>(m / hi * 9.0 + 0.5) : 0;
    idx = std::clamp(idx, 0, 9);
    out.push_back(kRamp[idx]);
  }
  return out;
}

const obs::JsonValue* find_tl_series(const obs::JsonValue& tl,
                                     std::string_view name) {
  for (const obs::JsonValue& s : tl["series"].items()) {
    if (s["name"].as_string() == name) return &s;
  }
  return nullptr;
}

char regime_char(const std::string& name) {
  if (name == "repo_bound") return 'R';
  if (name == "network_bound") return 'N';
  if (name == "local_disk_bound") return 'D';
  return '.';  // idle
}

std::string pad_to(std::string s, std::size_t width) {
  while (s.size() < width) s.push_back(' ');
  return s;
}

Result<std::string> cmd_timeline(const Parsed& p) {
  if (p.positional.size() != 1) {
    return invalid_argument("timeline <BENCH.json>");
  }
  VMSTORM_ASSIGN_OR_RETURN(text, read_file(p.positional[0]));
  VMSTORM_ASSIGN_OR_RETURN(doc, obs::parse_json(text));
  const obs::JsonValue& tl = doc["timeline"];
  if (!tl.is_object()) {
    return invalid_argument(
        "artifact has no timeline section (sampling was off; rerun the "
        "bench with VMSTORM_TIMELINE=1)");
  }

  const std::vector<double> time = json_doubles(tl["time"]);
  const double cadence = tl["cadence_seconds"].as_number();
  constexpr std::size_t kWidth = 64;
  constexpr std::size_t kLabel = 30;

  std::ostringstream os;
  os << doc["name"].as_string() << ": " << time.size() << " samples, "
     << Table::num(cadence, 2) << "s cadence";
  if (tl["dropped_samples"].as_number() > 0) {
    os << ", " << Table::num(tl["dropped_samples"].as_number(), 0)
       << " oldest overwritten (ring)";
  }
  if (!time.empty()) {
    os << ", window " << Table::num(time.front() - cadence, 2) << "s.."
       << Table::num(time.back(), 2) << "s";
  }
  os << "\n\n";

  // Headline series as sparklines. Utilization rows use a fixed 0..1 scale;
  // unbounded rows are normalized to their own peak (printed alongside).
  struct Headline {
    const char* series;
    double scale;     ///< applied to the peak annotation
    const char* unit;
    bool unit_scale;  ///< true: full-scale 1.0; false: full-scale = peak
  };
  const Headline kHeadlines[] = {
      {"net.throughput_bytes_per_sec", 1e-6, " MB/s peak", false},
      {"util.network", 1.0, " peak", true},
      {"util.repo_disk", 1.0, " peak", true},
      {"util.local_disk", 1.0, " peak", true},
      {"provider.imbalance", 1.0, "x peak", false},
  };
  for (const Headline& h : kHeadlines) {
    const obs::JsonValue* s = find_tl_series(tl, h.series);
    if (s == nullptr) continue;
    const std::vector<double> v = json_doubles((*s)["values"]);
    double peak = 0;
    for (double x : v) peak = std::max(peak, x);
    os << "  " << pad_to(h.series, kLabel) << "|"
       << pad_to(sparkline(v, kWidth, h.unit_scale ? 1.0 : peak), kWidth)
       << "| " << Table::num(peak * h.scale, 2) << h.unit << "\n";
  }

  // Per-provider load heatmap (one sparkline row per provider, capped).
  constexpr std::size_t kMaxHeatRows = 12;
  std::size_t heat_rows = 0, heat_total = 0;
  for (const obs::JsonValue& s : tl["series"].items()) {
    if (s["name"].as_string() != "provider.util") continue;
    ++heat_total;
    if (heat_rows >= kMaxHeatRows) continue;
    ++heat_rows;
    if (heat_rows == 1) os << "\n  provider disk utilization\n";
    os << "  " << pad_to("  p" + s["labels"]["provider"].as_string(), kLabel)
       << "|" << pad_to(sparkline(json_doubles(s["values"]), kWidth, 1.0),
                        kWidth)
       << "|\n";
  }
  if (heat_total > heat_rows) {
    os << "  (" << heat_total - heat_rows << " more providers not shown)\n";
  }

  // Phase segmentation: regime strip, segment table, totals, cross-checks.
  const obs::JsonValue& ph = tl["phases"];
  if (ph.is_object() && !time.empty()) {
    const auto& segs = ph["segments"].items();
    std::vector<char> regs(time.size(), '.');
    std::size_t si = 0;
    for (std::size_t i = 0; i < time.size() && si < segs.size(); ++i) {
      double seg_end = segs[si]["start"].as_number() +
                       segs[si]["seconds"].as_number();
      while (si + 1 < segs.size() && time[i] > seg_end + 1e-9) {
        ++si;
        seg_end = segs[si]["start"].as_number() +
                  segs[si]["seconds"].as_number();
      }
      regs[i] = regime_char(segs[si]["regime"].as_string());
    }
    std::string strip;
    const std::size_t cols = std::min(kWidth, regs.size());
    for (std::size_t c = 0; c < cols; ++c) {
      strip.push_back(regs[c * regs.size() / cols]);
    }
    os << "\n  " << pad_to("regime", kLabel) << "|" << pad_to(strip, kWidth)
       << "| R=repo N=network D=local-disk .=idle\n";

    os << "\n  bottleneck phases\n";
    Table seg_table({"regime", "start s", "seconds"});
    for (const obs::JsonValue& s : segs) {
      seg_table.add_row({s["regime"].as_string(),
                         Table::num(s["start"].as_number(), 2),
                         Table::num(s["seconds"].as_number(), 2)});
    }
    os << seg_table.to_string();

    double totals_sum = 0;
    Table totals({"regime", "seconds", "share"});
    const double duration = ph["duration_seconds"].as_number();
    for (const auto& [key, v] : ph["totals"].members()) {
      totals_sum += v.as_number();
      totals.add_row({key, Table::num(v.as_number(), 2),
                      duration > 0
                          ? Table::num(v.as_number() / duration * 100.0, 1) +
                                "%"
                          : "-"});
    }
    os << "\n" << totals.to_string();

    // The closed-sum invariant, re-verified on the exported artifact.
    const double tol = 1e-6 * std::max(1.0, duration);
    if (std::abs(totals_sum - duration) > tol) {
      return internal_error("phase totals sum " +
                            obs::json_number(totals_sum) +
                            " != duration " + obs::json_number(duration));
    }
    os << "\n  totals sum " << Table::num(totals_sum, 4) << "s == duration "
       << Table::num(duration, 4) << "s (closed)\n";

    // Recompute the segmentation from the exported series and require it
    // to match the embedded one: the analyzer must be a pure function of
    // the artifact.
    const obs::JsonValue* srepo = find_tl_series(tl, "util.repo_disk");
    const obs::JsonValue* snet = find_tl_series(tl, "util.network");
    const obs::JsonValue* slocal = find_tl_series(tl, "util.local_disk");
    if (srepo != nullptr && snet != nullptr && slocal != nullptr) {
      obs::PhaseOptions opts;
      opts.cadence_seconds = cadence;
      const obs::PhaseReport rep = obs::analyze_phases(
          time, json_doubles((*srepo)["values"]),
          json_doubles((*snet)["values"]), json_doubles((*slocal)["values"]),
          opts);
      for (std::size_t k = 0; k < obs::kRegimeCount; ++k) {
        const char* name = obs::regime_name(static_cast<obs::Regime>(k));
        const double embedded = ph["totals"][name].as_number();
        if (std::abs(embedded - rep.totals[k]) > tol) {
          return internal_error(
              std::string("recomputed phases disagree with artifact: ") +
              name + " " + obs::json_number(rep.totals[k]) + "s vs " +
              obs::json_number(embedded) + "s");
        }
      }
      os << "  recomputed segmentation matches the embedded phases ("
         << rep.segments.size() << " segments)\n";
    }
  }
  return os.str();
}

}  // namespace

Result<Bytes> parse_size(const std::string& text) {
  if (text.empty()) return invalid_argument("empty size");
  Bytes mult = 1;
  switch (text.back()) {
    case 'K': case 'k': mult = kKiB; break;
    case 'M': case 'm': mult = kMiB; break;
    case 'G': case 'g': mult = kGiB; break;
    default: break;
  }
  VMSTORM_ASSIGN_OR_RETURN(
      v, parse_u64(mult == 1 ? text : text.substr(0, text.size() - 1)));
  if (v > std::numeric_limits<Bytes>::max() / mult) {
    return out_of_range("size too large: " + text);
  }
  return v * mult;
}

std::string repo_cli_usage() {
  return "vmstormctl <command>\n"
         "  init <repo> [--providers N] [--replication R] [--dedup]\n"
         "  ls <repo>\n"
         "  stat <repo> <blob>\n"
         "  upload <repo> <file> [--chunk SIZE]\n"
         "  download <repo> <blob> <version> <file>\n"
         "  clone <repo> <blob> <version>\n"
         "  patch <repo> <blob> <offset> <file>\n"
         "  critpath <trace.jsonl>\n"
         "  engine-stats <BENCH_engine.json>\n"
         "  timeline <BENCH.json>\n";
}

Result<std::string> run_repo_cli(const std::vector<std::string>& args) {
  VMSTORM_ASSIGN_OR_RETURN(parsed, parse_args(args));
  if (parsed.command == "init") return cmd_init(parsed);
  if (parsed.command == "ls") return cmd_ls(parsed);
  if (parsed.command == "stat") return cmd_stat(parsed);
  if (parsed.command == "upload") return cmd_upload(parsed);
  if (parsed.command == "download") return cmd_download(parsed);
  if (parsed.command == "clone") return cmd_clone(parsed);
  if (parsed.command == "patch") return cmd_patch(parsed);
  if (parsed.command == "critpath") return cmd_critpath(parsed);
  if (parsed.command == "engine-stats") return cmd_engine_stats(parsed);
  if (parsed.command == "timeline") return cmd_timeline(parsed);
  return invalid_argument("unknown command '" + parsed.command + "'\n" +
                          repo_cli_usage());
}

}  // namespace vmstorm::apps
