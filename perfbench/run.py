#!/usr/bin/env python3
"""Host benchmark for vmstorm.

Builds the driver (perfbench/workloads.cpp) against the repository's
libraries, runs one workload for about --seconds seconds, checks its
outputs, and prints every metric by name and unit. README.md in this
directory maps each metric to its layer and workload.

    python3 perfbench/run.py --workload paper_baselines [--seed 2011]
                             [--seconds 36] [--trace 0|1]
    python3 perfbench/run.py --workload all   # every workload, both passes
    python3 perfbench/run.py --self-test      # tiny sizes, a few seconds

A run is one process: a warm-up repetition of the workload, then timed
repetitions while the next one still fits in --seconds. --trace 0 times
plain repetitions and reports the end-to-end metrics; --trace 1 alternates
plain and profiled repetitions and reports the per-layer ones. Each host
time is the fastest over the timed repetitions (README.md says why). The
last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"wall_s": {"value": 1.71, "unit": "s"}, ...}}

The exit code is non-zero if any check fails: an operation failed, a
deterministic count or the outcome digest differed between repetitions, or
the digest for seed 2011 differs from expected.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "vmstorm_perfbench"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("paper_baselines", "paper_ours_traced", "real_mirror")
RUN_TIMEOUT_S = 100  # past --seconds; a repetition takes a few seconds
MIB = float(1 << 20)
# calibration_s of the reference host: host times are scaled to it.
CALIBRATION_REF_S = 0.018


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- Build --------------------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no vmstorm sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "vmstorm_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


# ---- Repetitions --------------------------------------------------------


def run_reps(workload, seed, mode, size, seconds, tmpdir):
    """Runs the driver once; returns its repetitions, warm-up first.

    mode is "plain" or "alternate" (every second timed one profiled)."""
    cmd = [str(BINARY), workload, str(seed), mode, size, str(tmpdir), str(seconds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) ran over {seconds + RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}")
    try:
        reps = [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        raise BenchError(f"{workload} ({mode}) printed no result: {lines[-1][:200]}")
    for it in reps:
        for err in it["errors"]:
            log(f"  [{workload}] rep {it['rep']} {it['mode']}: {err}")
    return reps


# ---- Checks -------------------------------------------------------------


def check(workload, seed, size, reps):
    """Returns the list of failed checks (empty when all pass). Every
    repetition, warm-up and profiled ones included, must agree."""
    problems = []
    first = reps[0]
    for it in reps:
        where = f"rep {it['rep']} ({it['mode']})"
        if it["failed"]:
            problems.append(f"{where}: {it['failed']} failed operations")
        if it["digest"] != first["digest"]:
            problems.append(f"{where}: outcome digest {it['digest']} != {first['digest']}")
        for key in sorted(set(it["counts"]) | set(first["counts"])):
            a, b = first["counts"].get(key), it["counts"].get(key)
            if a != b:
                problems.append(f"{where}: count {key} did not repeat: {a} vs {b}")
    if size == "full" and EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text())
        want = expected["digests"].get(workload)
        if seed == expected["seed"] and want and first["digest"] != want:
            problems.append(f"digest {first['digest']} != expected {want} "
                            f"for seed {seed}")
    return problems


# ---- Metrics ------------------------------------------------------------


def median(values):
    return statistics.median(list(values))


def ratio(num, den):
    return num / den if den else 0.0


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s"}


def best(reps, section, key):
    """The fastest time of one timed call (or profiler bucket) across reps.

    Every repetition makes the same calls on the same inputs, so the work
    is the same; the host's speed is not (README.md, "Bounds and measured
    spread"). The fastest repetition is the one least slowed by it."""
    return min(it[section].get(key, 0.0) for it in reps)


def timer(reps, name):
    """Seconds in one timer: the sum over its units ("name@vm" on
    real_mirror, the bare name elsewhere) of each unit's fastest time."""
    units = set().union(*(it["timers"] for it in reps))
    return sum(best(reps, "timers", k) for k in units if k.split("@")[0] == name)


def wall(reps):
    """Host seconds across the workload's timed calls: the sum over the
    timed units of each unit's fastest time."""
    units = set().union(*(it["timers"] for it in reps))
    return sum(best(reps, "timers", k) for k in units)


def calibration(reps):
    """The host's speed during the run: the fastest calibration pass."""
    return min(it["calibration_s"] for it in reps)


def host_scale(reps):
    """Turns host seconds measured in this run into seconds on the
    reference host, whose calibration pass takes CALIBRATION_REF_S. The
    shared host's speed drifts by up to half over minutes, and the
    calibration loop drifts with it (README.md)."""
    return CALIBRATION_REF_S / calibration(reps)


def end_to_end(plain):
    scale = host_scale(plain)
    return {
        "wall_s": wall(plain) * scale,
        "setup_s": min(it["setup_s"] for it in plain) * scale,
    }


PHASE_TIMERS = ("bcast.deploy_s", "cloud.deploy_s", "cloud.snapshot_s", "cloud.resume_s")
TIMERS = PHASE_TIMERS + (
    "blob.read_s", "mirror.open_s", "mirror.pread_s", "mirror.pwrite_s",
    "mirror.clone_s", "mirror.commit_s", "mirror.close_s", "obs.export_s",
    "obs.parse_s", "obs.critpath_s", "obs.timeline_s", "obs.metrics_s")
COUNTS = ("sim.events", "sim.queue_depth_hw", "sim.wait_records",
          "net.messages", "net.connections", "blob.locates", "blob.fetches",
          "blob.commits", "blob.metadata_node_visits", "blob.metadata_nodes",
          "mirror.remote_fetches", "mirror.pread_calls", "vm.requests",
          "obs.trace_recorded", "obs.trace_dropped_ring")
MIB_COUNTS = {"net.payload_mib": "net.payload_bytes",
              "storage.platter_mib": "storage.platter_bytes",
              "blob.stored_mib": "blob.stored_bytes",
              "mirror.remote_mib": "mirror.remote_bytes",
              "mirror.gapfill_mib": "mirror.gapfill_bytes"}
GUEST_IO = {"mirror.pread_us_p50": "us", "mirror.pread_us_p99": "us",
             "mirror.commit_ms_p50": "ms", "mirror.read_mib_per_s": "MiB/s",
             "mirror.write_mib_per_s": "MiB/s"}
PROFILE = ("sim.queue_ops_s", "sim.dispatch_s", "sim.user_work_s", "obs.tracer_s")


def per_layer(plain, profiled):
    """Per-layer metrics (name -> (value, unit)). Host times are the fastest
    plain repetition's, except the SelfProfiler buckets, which come from the
    profiled ones; guest I/O rates and latencies are medians over the plain
    repetitions; counts are exact (check() proved they repeat). Host
    times are scaled to the reference host like wall_s."""
    scale = host_scale(plain + profiled)
    counts = plain[0]["counts"]
    count = lambda k: counts.get(k, 0)
    out = {}
    for k in TIMERS:
        out[k] = (timer(plain, k) * scale, "s")
    for k in COUNTS:
        out[k] = (count(k), "count")
    for k, src in MIB_COUNTS.items():
        out[k] = (count(src) / MIB, "MiB")
    for k, unit in GUEST_IO.items():
        out[k] = (median(it["io"].get(k, 0.0) for it in plain), unit)
    for k in PROFILE:
        out[k] = (best(profiled, "profile", k) * scale, "s")

    phase_s = sum(timer(plain, k) for k in PHASE_TIMERS) * scale
    events = count("sim.events")
    out["sim.events_per_s"] = (ratio(events, phase_s), "1/s")
    out["sim.ns_per_event"] = (ratio(phase_s * 1e9, events), "ns")
    lookups = count("storage.cache_hits") + count("storage.cache_misses")
    out["storage.cache_lookups"] = (lookups, "count")
    out["storage.cache_hit_ratio"] = (ratio(count("storage.cache_hits"), lookups), "ratio")
    out["mirror.fetch_useful_ratio"] = (
        ratio(count("mirror.deploy_unique_read_bytes"),
              count("mirror.deploy_remote_bytes")), "ratio")
    out["obs.profile_overhead"] = (ratio(wall(profiled), wall(plain)), "ratio")
    out["host.calibration_s"] = (calibration(plain + profiled), "s")
    # VmHWM only grows, so the last repetition holds the process's peak.
    out["peak_rss_mib"] = (max(it["peak_rss_bytes"] for it in plain + profiled) / MIB, "MiB")
    return dict(sorted(out.items()))


def summarize(trace, reps):
    """Metrics from the timed repetitions (the warm-up is only checked)."""
    timed = [it for it in reps if not it["warmup"]]
    plain = [it for it in timed if it["mode"] == "plain"]
    if trace:
        profiled = [it for it in timed if it["mode"] == "profiled"]
        return per_layer(plain, profiled)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(plain).items()}


def report(workload, trace, reps, metrics, problems):
    attempted = sum(it["attempted"] for it in reps)
    failed = sum(it["failed"] for it in reps)
    modes = ", ".join(f"{sum(it['mode'] == m and not it['warmup'] for it in reps)} {m}"
                      for m in ("plain", "profiled"))
    print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; 1 warm-up and "
          f"{modes} repetitions; digest {reps[0]['digest']})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(f"  {'failed_share':<28} {ratio(failed, attempted):>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return not problems


def run_workload(workload, seed, seconds, trace, tmpdir):
    mode = "alternate" if trace else "plain"
    reps = run_reps(workload, seed, mode, "full", seconds, tmpdir)
    problems = check(workload, seed, "full", reps)
    return report(workload, trace, reps, summarize(trace, reps), problems)


# ---- Self-test ----------------------------------------------------------


def self_test(tmpdir):
    """Tiny sizes: same seed => same digest and counts (warm-up, plain and
    profiled repetitions), another seed => another digest, metric names ==
    BENCHMARK.json."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        reps = run_reps(workload, 2011, "alternate", "tiny", 0, tmpdir)
        other = run_reps(workload, 2012, "plain", "tiny", 0, tmpdir)
        problems += [f"{workload}: {p}" for p in check(workload, 2011, "tiny", reps)]
        if any(it["failed"] for it in other):
            problems.append(f"{workload}: seed 2012 had failed operations")
        if other[0]["digest"] == reps[0]["digest"]:
            problems.append(f"{workload}: seeds 2011 and 2012 gave one digest")
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            got = {k: u for k, (_, u) in summarize(trace, reps).items()}
            want = {m["name"]: m["unit"] for m in declared[section]}
            if got != want:
                problems.append(f"{workload}: {section} metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(want.items())}")
        log(f"self-test: {workload} digest {reps[0]['digest']} "
            f"(seed 2012: {other[0]['digest']})")
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return not problems


# ---- Main ---------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2011)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")

    tmpdir = ROOT / ".bench_build" / "tmp" / f"run-{os.getpid()}"
    try:
        build()
        tmpdir.mkdir(parents=True, exist_ok=True)
        if args.self_test:
            ok = self_test(tmpdir)
        elif args.workload == "all":
            ok = all([run_workload(w, args.seed, args.seconds, t, tmpdir)
                      for w in WORKLOADS for t in (0, 1)])
        else:
            ok = run_workload(args.workload, args.seed, args.seconds, args.trace, tmpdir)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
