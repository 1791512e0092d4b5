#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts against the vmstorm-bench schema.

Usage:  check_bench_schema.py FILE_OR_DIR [FILE_OR_DIR ...]

Accepts vmstorm-bench-v3 artifacts. The "attribution" key holds the
critical-path analysis (null when tracing was off): each row's bucket
values must come from the closed bucket enum and sum to the row's total
seconds within 1e-6. The "timeline" key holds the sampled time series
(null when sampling was off): timestamps strictly increasing, every series
exactly as long as the time axis, and — when the optional "phases"
segmentation is present — regimes drawn from a closed enum with per-regime
totals summing to the analyzed duration (the same closed-sum invariant the
attribution rows obey).

Also accepts vmstorm-engine-v1 (the bench_scale self-telemetry artifact):
deterministic "sim" counters plus an "overhead" ablation with exactly the
arms off/sampled/full, each tiling wall time into the closed phase enum.
On full-mode artifacts (quick == false) the sampled arm's tracer time must
be strictly below the full arm's — the point of sampling. An optional
top-level "timeline" key (from the fourth, sampling-enabled run) is
validated with the v3 timeline rules.

Directories are scanned for BENCH_*.json. Exits non-zero and prints one
line per violation if any artifact is malformed. Pure stdlib — no
third-party schema library required.
"""
import json
import pathlib
import sys

SCHEMA = "vmstorm-bench-v3"
ENGINE_SCHEMA = "vmstorm-engine-v1"

# Closed enum: obs::Regime names, in enum (= schema) order.
REGIMES = ("idle", "repo_bound", "network_bound", "local_disk_bound")

# Closed enum: the analyzer's CritBucket names, in emission order.
BUCKETS = ("boot_init", "compute", "local_disk", "metadata",
           "net_transfer", "queue_wait", "repo_disk")
SUM_TOLERANCE = 1e-6

# Closed enums for vmstorm-engine-v1.
ENGINE_ARMS = ("off", "sampled", "full")
ENGINE_PHASES = ("queue_ops", "auditor", "resume", "tracer", "dispatch",
                 "user_work")
ENGINE_SIM_KEYS = ("events_processed", "events_scheduled",
                   "queue_depth_high_water", "wait_records_created",
                   "wait_records_live_high_water", "cancelled_wakeups")
ENGINE_TRACE_KEYS = ("recorded", "dropped_ring", "dropped_sampling")


def fail(path, errors, msg):
    errors.append(f"{path}: {msg}")


def check_point(path, errors, where, pt):
    if not isinstance(pt, dict):
        return fail(path, errors, f"{where}: point is not an object")
    if "x" not in pt or "y" not in pt:
        return fail(path, errors, f"{where}: point missing x/y")
    if not isinstance(pt["x"], (int, float, str)):
        fail(path, errors, f"{where}: x must be a number or category label")
    if not isinstance(pt["y"], (int, float)) or isinstance(pt["y"], bool):
        fail(path, errors, f"{where}: y must be a number")


def check_metrics(path, errors, metrics):
    if metrics is None:
        return  # benches without a Cloud (real-I/O Bonnie) have no snapshot
    if not isinstance(metrics, dict):
        return fail(path, errors, "metrics must be an object or null")
    for group in ("counters", "gauges", "histograms", "time_weighted"):
        if group not in metrics:
            fail(path, errors, f"metrics missing group '{group}'")
        elif not isinstance(metrics[group], dict):
            fail(path, errors, f"metrics group '{group}' is not an object")
    for key, value in metrics.get("counters", {}).items():
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, errors, f"counter '{key}' is not an integer")
    for key, value in metrics.get("histograms", {}).items():
        if not isinstance(value, dict) or "count" not in value:
            fail(path, errors, f"histogram '{key}' missing count")


def check_attribution(path, errors, attr):
    if attr is None:
        return  # tracing was off for this artifact's capture run
    if not isinstance(attr, dict):
        return fail(path, errors, "attribution must be an object or null")
    if tuple(attr.get("buckets", ())) != BUCKETS:
        fail(path, errors, f"attribution.buckets must be {list(BUCKETS)}")
    rows = attr.get("rows")
    if not isinstance(rows, list):
        return fail(path, errors, "attribution.rows must be an array")
    for ri, row in enumerate(rows):
        where = f"attribution.rows[{ri}]"
        if not isinstance(row, dict):
            fail(path, errors, f"{where} is not an object")
            continue
        for key in ("kind", "instance", "lane", "span", "start", "seconds"):
            if key not in row:
                fail(path, errors, f"{where} missing '{key}'")
        buckets = row.get("attribution")
        if not isinstance(buckets, dict):
            fail(path, errors, f"{where}.attribution must be an object")
            continue
        extra = set(buckets) - set(BUCKETS)
        if extra:
            fail(path, errors,
                 f"{where}: unknown bucket(s) {sorted(extra)} "
                 f"(closed enum: {list(BUCKETS)})")
        missing = set(BUCKETS) - set(buckets)
        if missing:
            fail(path, errors, f"{where}: missing bucket(s) {sorted(missing)}")
        total = sum(v for v in buckets.values()
                    if isinstance(v, (int, float)) and not isinstance(v, bool))
        seconds = row.get("seconds")
        if isinstance(seconds, (int, float)) and not isinstance(seconds, bool):
            if abs(total - seconds) > SUM_TOLERANCE:
                fail(path, errors,
                     f"{where}: buckets sum to {total!r}, "
                     f"row seconds is {seconds!r} (tolerance {SUM_TOLERANCE})")
    summary = attr.get("summary")
    if not isinstance(summary, dict):
        fail(path, errors, "attribution.summary must be an object")


def check_phases(path, errors, where, phases, n_samples):
    if tuple(phases.get("regimes", ())) != REGIMES:
        fail(path, errors, f"{where}.regimes must be {list(REGIMES)}")
    duration = phases.get("duration_seconds")
    if not _nonneg(duration):
        fail(path, errors,
             f"{where}.duration_seconds must be a non-negative number")
        duration = 0.0
    tol = SUM_TOLERANCE * max(1.0, duration)

    segments = phases.get("segments")
    if not isinstance(segments, list):
        fail(path, errors, f"{where}.segments must be an array")
        segments = []
    cursor = phases.get("start")
    seg_sum = 0.0
    for si, seg in enumerate(segments):
        swhere = f"{where}.segments[{si}]"
        if not isinstance(seg, dict):
            fail(path, errors, f"{swhere} is not an object")
            continue
        if seg.get("regime") not in REGIMES:
            fail(path, errors,
                 f"{swhere}.regime {seg.get('regime')!r} not in closed "
                 f"enum {list(REGIMES)}")
        if not _number(seg.get("start")) or not _nonneg(seg.get("seconds")):
            fail(path, errors, f"{swhere} needs numeric start/seconds")
            continue
        # Segments tile the window: each starts where the previous ended.
        if _number(cursor) and abs(seg["start"] - cursor) > tol:
            fail(path, errors,
                 f"{swhere} starts at {seg['start']!r}, previous segment "
                 f"ended at {cursor!r} (not contiguous)")
        cursor = seg["start"] + seg["seconds"]
        seg_sum += seg["seconds"]

    totals = phases.get("totals")
    if not isinstance(totals, dict):
        fail(path, errors, f"{where}.totals must be an object")
        totals = {}
    if tuple(totals) != REGIMES:
        fail(path, errors,
             f"{where}.totals keys must be exactly {list(REGIMES)}")
    totals_sum = sum(v for v in totals.values() if _nonneg(v))
    # The closed-sum invariant: every sampled interval lands in exactly one
    # regime, so both the totals and the segment lengths tile the duration.
    if abs(totals_sum - duration) > tol:
        fail(path, errors,
             f"{where}.totals sum to {totals_sum!r}, duration_seconds is "
             f"{duration!r}")
    if segments and abs(seg_sum - duration) > tol:
        fail(path, errors,
             f"{where}.segments sum to {seg_sum!r}, duration_seconds is "
             f"{duration!r}")
    if phases.get("samples") != n_samples:
        fail(path, errors,
             f"{where}.samples is {phases.get('samples')!r}, timeline has "
             f"{n_samples} samples")


def check_timeline(path, errors, tl):
    if tl is None:
        return  # sampling was off for this artifact's capture run
    if not isinstance(tl, dict):
        return fail(path, errors, "timeline must be an object or null")
    cadence = tl.get("cadence_seconds")
    if not _number(cadence) or cadence <= 0:
        fail(path, errors, "timeline.cadence_seconds must be > 0")
        cadence = 0.0
    for key in ("samples", "samples_taken", "dropped_samples"):
        if not _nonneg(tl.get(key)):
            fail(path, errors,
                 f"timeline.{key} must be a non-negative number")
    time = tl.get("time")
    if not isinstance(time, list):
        return fail(path, errors, "timeline.time must be an array")
    n = len(time)
    if _nonneg(tl.get("samples")) and tl["samples"] != n:
        fail(path, errors,
             f"timeline.samples is {tl['samples']!r} but time has {n} "
             f"entries")
    if (_nonneg(tl.get("samples_taken"))
            and _nonneg(tl.get("dropped_samples"))
            and tl["samples_taken"] - tl["dropped_samples"] != n):
        fail(path, errors,
             "timeline.samples_taken - dropped_samples must equal the "
             "retained sample count")
    for i, t in enumerate(time):
        if not _number(t):
            fail(path, errors, f"timeline.time[{i}] is not a number")
        elif i > 0 and _number(time[i - 1]) and t <= time[i - 1]:
            fail(path, errors,
                 f"timeline.time[{i}] = {t!r} not strictly after "
                 f"time[{i - 1}] = {time[i - 1]!r}")
    # A ring that never wrapped sampled on a fixed grid: the window span
    # must match (samples - 1) whole cadence steps.
    if (n > 0 and cadence > 0 and tl.get("dropped_samples") == 0
            and all(_number(t) for t in time)):
        span = time[-1] - time[0]
        want = (n - 1) * cadence
        if abs(span - want) > SUM_TOLERANCE * max(1.0, want):
            fail(path, errors,
                 f"timeline window spans {span!r}s, want (samples-1)*cadence"
                 f" = {want!r}s (no samples were dropped)")
    series = tl.get("series")
    if not isinstance(series, list) or not series:
        fail(path, errors, "timeline.series must be a non-empty array")
        series = []
    for si, s in enumerate(series):
        swhere = f"timeline.series[{si}]"
        if not isinstance(s, dict) or not s.get("name"):
            fail(path, errors, f"{swhere} missing name")
            continue
        if not isinstance(s.get("labels"), dict):
            fail(path, errors, f"{swhere}.labels must be an object")
        values = s.get("values")
        if not isinstance(values, list) or len(values) != n:
            fail(path, errors,
                 f"{swhere}.values must have exactly {n} entries "
                 f"(one per sample)")
            continue
        for vi, v in enumerate(values):
            if not _number(v):
                fail(path, errors, f"{swhere}.values[{vi}] is not a number")
                break
    if "phases" in tl:
        phases = tl["phases"]
        if not isinstance(phases, dict):
            fail(path, errors, "timeline.phases must be an object")
        else:
            check_phases(path, errors, "timeline.phases", phases, n)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _nonneg(v):
    return _number(v) and v >= 0 and v == v and v not in (float("inf"),)


def check_fingerprint(path, errors, config):
    if not isinstance(config, dict):
        return fail(path, errors, "'config' must be an object")
    fp = config.get("fingerprint")
    if not (isinstance(fp, str) and len(fp) == 16
            and all(c in "0123456789abcdef" for c in fp)):
        fail(path, errors, "config.fingerprint must be 16 hex chars")


def check_trace_counts(path, errors, where, trace):
    if not isinstance(trace, dict):
        return fail(path, errors, f"{where} must be an object")
    for key in ENGINE_TRACE_KEYS:
        if not _nonneg(trace.get(key)):
            fail(path, errors,
                 f"{where}.{key} must be a non-negative number")


def check_engine_report(path, errors, doc):
    for key in ("name", "title"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            fail(path, errors, f"'{key}' must be a non-empty string")
    if not isinstance(doc.get("quick"), bool):
        fail(path, errors, "'quick' must be a boolean")
    check_fingerprint(path, errors, doc.get("config"))

    sim = doc.get("sim")
    if not isinstance(sim, dict):
        fail(path, errors, "'sim' must be an object")
    else:
        for key in ENGINE_SIM_KEYS:
            if not _nonneg(sim.get(key)):
                fail(path, errors, f"sim.{key} must be a non-negative number")
        check_trace_counts(path, errors, "sim.trace", sim.get("trace"))

    overhead = doc.get("overhead")
    if not isinstance(overhead, dict):
        return fail(path, errors, "'overhead' must be an object")
    arms = overhead.get("arms")
    if not isinstance(arms, list):
        return fail(path, errors, "overhead.arms must be an array")
    names = tuple(a.get("name") for a in arms if isinstance(a, dict))
    if names != ENGINE_ARMS:
        return fail(path, errors,
                    f"overhead.arms must be exactly {list(ENGINE_ARMS)} "
                    f"in order, got {list(names)}")
    tracer_secs = {}
    for arm in arms:
        where = f"overhead.arms[{arm.get('name')}]"
        for key in ("wall_seconds", "events_per_sec", "peak_rss_bytes"):
            if not _nonneg(arm.get(key)):
                fail(path, errors,
                     f"{where}.{key} must be a non-negative number")
        check_trace_counts(path, errors, f"{where}.trace", arm.get("trace"))
        phases = arm.get("phases")
        if not isinstance(phases, dict):
            fail(path, errors, f"{where}.phases must be an object")
            continue
        extra = set(phases) - set(ENGINE_PHASES)
        missing = set(ENGINE_PHASES) - set(phases)
        if extra:
            fail(path, errors,
                 f"{where}.phases: unknown phase(s) {sorted(extra)} "
                 f"(closed enum: {list(ENGINE_PHASES)})")
        if missing:
            fail(path, errors,
                 f"{where}.phases: missing phase(s) {sorted(missing)}")
        for key, v in phases.items():
            if not _nonneg(v):
                fail(path, errors,
                     f"{where}.phases.{key} must be a non-negative number")
        if _nonneg(phases.get("tracer")):
            tracer_secs[arm.get("name")] = phases["tracer"]
    # Sampling must actually pay off. Quick-mode runs are too short for
    # stable host timing, so only full artifacts enforce the ordering.
    if doc.get("quick") is False and set(("sampled", "full")) <= set(tracer_secs):
        if tracer_secs["sampled"] >= tracer_secs["full"]:
            fail(path, errors,
                 f"sampled arm tracer time ({tracer_secs['sampled']!r}s) not "
                 f"strictly below full arm ({tracer_secs['full']!r}s)")
    # Optional: the fourth (sampling-enabled) run's time series. Absent on
    # artifacts from builds that predate the timeline.
    if "timeline" in doc:
        check_timeline(path, errors, doc["timeline"])


def check_report(path, errors, doc):
    if not isinstance(doc, dict):
        return fail(path, errors, "top level is not an object")
    schema = doc.get("schema")
    if schema == ENGINE_SCHEMA:
        return check_engine_report(path, errors, doc)
    if schema != SCHEMA:
        fail(path, errors, f"schema is {schema!r}, want {SCHEMA!r}")
    for key in ("name", "figure", "title"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            fail(path, errors, f"'{key}' must be a non-empty string")
    if not isinstance(doc.get("quick"), bool):
        fail(path, errors, "'quick' must be a boolean")

    config = doc.get("config")
    if not isinstance(config, dict):
        fail(path, errors, "'config' must be an object")
    else:
        fp = config.get("fingerprint")
        if not (isinstance(fp, str) and len(fp) == 16
                and all(c in "0123456789abcdef" for c in fp)):
            fail(path, errors, "config.fingerprint must be 16 hex chars")

    panels = doc.get("panels")
    if not isinstance(panels, list) or not panels:
        return fail(path, errors, "'panels' must be a non-empty array")
    for pi, panel in enumerate(panels):
        where = f"panels[{pi}]"
        if not isinstance(panel, dict):
            fail(path, errors, f"{where} is not an object")
            continue
        if not panel.get("title"):
            fail(path, errors, f"{where} missing title")
        series = panel.get("series")
        if not isinstance(series, list) or not series:
            fail(path, errors, f"{where}.series must be a non-empty array")
            continue
        for si, s in enumerate(series):
            swhere = f"{where}.series[{si}]"
            if not isinstance(s, dict) or not s.get("name"):
                fail(path, errors, f"{swhere} missing name")
                continue
            pts = s.get("points")
            if not isinstance(pts, list) or not pts:
                fail(path, errors, f"{swhere}.points must be non-empty")
                continue
            for pt in pts:
                check_point(path, errors, swhere, pt)
            for pt in s.get("reference", []):
                check_point(path, errors, f"{swhere}.reference", pt)

    if "metrics" not in doc:
        fail(path, errors, "'metrics' key missing (may be null, not absent)")
    else:
        check_metrics(path, errors, doc["metrics"])

    if "attribution" not in doc:
        fail(path, errors,
             "'attribution' key missing (may be null, not absent)")
    else:
        check_attribution(path, errors, doc["attribution"])

    if "timeline" not in doc:
        fail(path, errors,
             "'timeline' key missing (may be null, not absent)")
    else:
        check_timeline(path, errors, doc["timeline"])


def collect(args):
    paths = []
    for arg in args:
        p = pathlib.Path(arg)
        if p.is_dir():
            paths.extend(sorted(p.glob("BENCH_*.json")))
        else:
            paths.append(p)
    return paths


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = collect(argv[1:])
    if not paths:
        print("check_bench_schema: no BENCH_*.json found", file=sys.stderr)
        return 1
    errors = []
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            fail(path, errors, f"unreadable: {e}")
            continue
        check_report(path, errors, doc)
    for line in errors:
        print(line, file=sys.stderr)
    print(f"check_bench_schema: {len(paths)} artifact(s), "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
