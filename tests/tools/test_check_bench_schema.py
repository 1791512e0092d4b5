#!/usr/bin/env python3
"""Unit tests for tools/check_bench_schema.py, vmstorm-engine-v1 coverage.

Builds artifact dicts in memory and runs them through check_report, so the
closed enums (arms, phases, sim counters) and the sampled-vs-full tracer
ordering are pinned down without any file fixtures.
"""
import copy
import importlib.util
import pathlib
import sys
import unittest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "check_bench_schema.py"
spec = importlib.util.spec_from_file_location("check_bench_schema", TOOL)
cbs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cbs)


def engine_arm(name, tracer):
    return {
        "name": name,
        "wall_seconds": 1.5,
        "events_per_sec": 80000.0,
        "peak_rss_bytes": 1 << 20,
        "trace": {"recorded": 100, "dropped_ring": 0,
                  "dropped_sampling": 0},
        "phases": {"queue_ops": 0.2, "auditor": 0.1, "resume": 0.8,
                   "tracer": tracer, "dispatch": 0.2, "user_work": 0.6},
    }


def engine_doc(quick=False):
    return {
        "schema": "vmstorm-engine-v1",
        "name": "engine",
        "title": "engine self-telemetry at scale",
        "quick": quick,
        "config": {"instances": 10240, "seed": 2011,
                   "fingerprint": "0123456789abcdef"},
        "sim": {
            "events_processed": 1000000,
            "events_scheduled": 1040000,
            "queue_depth_high_water": 20480,
            "wait_records_created": 400000,
            "wait_records_live_high_water": 10240,
            "cancelled_wakeups": 17,
            "trace": {"recorded": 900000, "dropped_ring": 100000,
                      "dropped_sampling": 0},
        },
        "overhead": {
            "arms": [engine_arm("off", 0.0), engine_arm("sampled", 0.05),
                     engine_arm("full", 0.4)],
        },
    }


def check(doc):
    errors = []
    cbs.check_report("test.json", errors, doc)
    return errors


def timeline_section(samples=4, cadence=0.25):
    time = [cadence * (i + 1) for i in range(samples)]
    series = [
        {"name": "util.repo_disk", "labels": {},
         "values": [0.9] * samples},
        {"name": "provider.util", "labels": {"provider": "0"},
         "values": [0.5] * samples},
    ]
    duration = samples * cadence
    return {
        "cadence_seconds": cadence,
        "samples": samples,
        "samples_taken": samples,
        "dropped_samples": 0,
        "time": time,
        "series": series,
        "phases": {
            "regimes": ["idle", "repo_bound", "network_bound",
                        "local_disk_bound"],
            "segments": [{"regime": "repo_bound", "start": 0.0,
                          "seconds": duration}],
            "totals": {"idle": 0.0, "repo_bound": duration,
                       "network_bound": 0.0, "local_disk_bound": 0.0},
            "start": 0.0,
            "duration_seconds": duration,
            "samples": samples,
        },
    }


def v3_doc():
    return {
        "schema": "vmstorm-bench-v3",
        "name": "fig4",
        "figure": "Figure 4",
        "title": "t",
        "quick": True,
        "config": {"fingerprint": "0123456789abcdef"},
        "panels": [{"title": "p", "series": [
            {"name": "ours", "points": [{"x": 1, "y": 2.0}]}]}],
        "metrics": None,
        "attribution": None,
        "timeline": timeline_section(),
    }


class TimelineSchemaTest(unittest.TestCase):
    def test_valid_v3_passes(self):
        self.assertEqual(check(v3_doc()), [])

    def test_null_timeline_passes(self):
        doc = v3_doc()
        doc["timeline"] = None
        self.assertEqual(check(doc), [])

    def test_missing_timeline_key_rejected(self):
        doc = v3_doc()
        del doc["timeline"]
        self.assertTrue(any("'timeline' key missing" in e
                            for e in check(doc)))

    def test_older_bench_schemas_rejected(self):
        for old in ("vmstorm-bench-v1", "vmstorm-bench-v2"):
            doc = v3_doc()
            doc["schema"] = old
            self.assertTrue(any("schema is" in e for e in check(doc)), old)

    def test_time_must_be_strictly_increasing(self):
        doc = v3_doc()
        doc["timeline"]["time"][2] = doc["timeline"]["time"][1]
        self.assertTrue(any("strictly after" in e for e in check(doc)))

    def test_series_length_must_match_time(self):
        doc = v3_doc()
        doc["timeline"]["series"][0]["values"].append(0.0)
        self.assertTrue(any("exactly 4 entries" in e for e in check(doc)))

    def test_window_must_match_cadence_when_nothing_dropped(self):
        doc = v3_doc()
        doc["timeline"]["time"] = [0.25, 0.5, 0.75, 2.0]
        self.assertTrue(any("(samples-1)*cadence" in e for e in check(doc)))

    def test_wrapped_ring_relaxes_the_grid_check(self):
        doc = v3_doc()
        doc["timeline"]["time"] = [0.25, 0.5, 0.75, 2.0]
        doc["timeline"]["samples_taken"] = 10
        doc["timeline"]["dropped_samples"] = 6
        self.assertEqual(check(doc), [])

    def test_retained_count_bookkeeping(self):
        doc = v3_doc()
        doc["timeline"]["samples_taken"] = 10  # dropped stays 0
        self.assertTrue(any("retained" in e for e in check(doc)))

    def test_regime_enum_is_closed(self):
        doc = v3_doc()
        doc["timeline"]["phases"]["segments"][0]["regime"] = "gpu_bound"
        self.assertTrue(any("closed" in e for e in check(doc)))
        doc2 = v3_doc()
        doc2["timeline"]["phases"]["regimes"].append("gpu_bound")
        self.assertTrue(any("regimes" in e for e in check(doc2)))

    def test_totals_keys_are_exactly_the_enum(self):
        doc = v3_doc()
        del doc["timeline"]["phases"]["totals"]["idle"]
        self.assertTrue(any("totals keys" in e for e in check(doc)))

    def test_totals_must_sum_to_duration(self):
        doc = v3_doc()
        doc["timeline"]["phases"]["totals"]["idle"] = 0.5
        self.assertTrue(any("totals sum" in e for e in check(doc)))

    def test_segments_must_be_contiguous(self):
        doc = v3_doc()
        ph = doc["timeline"]["phases"]
        ph["segments"] = [
            {"regime": "repo_bound", "start": 0.0, "seconds": 0.5},
            {"regime": "idle", "start": 0.75, "seconds": 0.5},  # gap
        ]
        ph["totals"] = {"idle": 0.5, "repo_bound": 0.5,
                        "network_bound": 0.0, "local_disk_bound": 0.0}
        self.assertTrue(any("not contiguous" in e for e in check(doc)))

    def test_phase_samples_must_match_timeline(self):
        doc = v3_doc()
        doc["timeline"]["phases"]["samples"] = 99
        self.assertTrue(any("phases.samples" in e for e in check(doc)))

    def test_engine_artifact_accepts_optional_timeline(self):
        doc = engine_doc()
        self.assertEqual(check(doc), [])  # absent is fine (old artifacts)
        doc["timeline"] = timeline_section()
        self.assertEqual(check(doc), [])
        doc["timeline"]["cadence_seconds"] = 0
        self.assertTrue(any("cadence_seconds" in e for e in check(doc)))


class EngineSchemaTest(unittest.TestCase):
    def test_valid_full_artifact_passes(self):
        self.assertEqual(check(engine_doc()), [])

    def test_valid_quick_artifact_passes(self):
        self.assertEqual(check(engine_doc(quick=True)), [])

    def test_unknown_schema_rejected(self):
        doc = engine_doc()
        doc["schema"] = "vmstorm-engine-v99"
        self.assertTrue(check(doc))

    def test_missing_overhead_rejected(self):
        doc = engine_doc()
        del doc["overhead"]
        self.assertTrue(any("overhead" in e for e in check(doc)))

    def test_arm_order_is_fixed(self):
        doc = engine_doc()
        arms = doc["overhead"]["arms"]
        arms[0], arms[1] = arms[1], arms[0]
        self.assertTrue(any("in order" in e for e in check(doc)))

    def test_missing_arm_rejected(self):
        doc = engine_doc()
        doc["overhead"]["arms"] = doc["overhead"]["arms"][:2]
        self.assertTrue(check(doc))

    def test_negative_events_per_sec_rejected(self):
        doc = engine_doc()
        doc["overhead"]["arms"][0]["events_per_sec"] = -1.0
        self.assertTrue(any("events_per_sec" in e for e in check(doc)))

    def test_boolean_is_not_a_number(self):
        doc = engine_doc()
        doc["sim"]["events_processed"] = True
        self.assertTrue(any("events_processed" in e for e in check(doc)))

    def test_missing_sim_counter_rejected(self):
        doc = engine_doc()
        del doc["sim"]["wait_records_created"]
        self.assertTrue(any("wait_records_created" in e for e in check(doc)))

    def test_missing_trace_cause_rejected(self):
        doc = engine_doc()
        del doc["sim"]["trace"]["dropped_sampling"]
        self.assertTrue(any("dropped_sampling" in e for e in check(doc)))

    def test_phases_are_a_closed_enum(self):
        extra = engine_doc()
        extra["overhead"]["arms"][2]["phases"]["gc"] = 0.1
        self.assertTrue(any("unknown phase" in e for e in check(extra)))
        missing = engine_doc()
        del missing["overhead"]["arms"][2]["phases"]["dispatch"]
        self.assertTrue(any("missing phase" in e for e in check(missing)))

    def test_bad_fingerprint_rejected(self):
        doc = engine_doc()
        doc["config"]["fingerprint"] = "xyz"
        self.assertTrue(any("fingerprint" in e for e in check(doc)))

    def test_sampling_must_pay_off_on_full_runs(self):
        doc = engine_doc(quick=False)
        doc["overhead"]["arms"][1]["phases"]["tracer"] = 0.4  # == full arm
        self.assertTrue(any("strictly below" in e for e in check(doc)))

    def test_quick_runs_skip_the_tracer_ordering(self):
        doc = engine_doc(quick=True)
        doc["overhead"]["arms"][1]["phases"]["tracer"] = 0.4
        self.assertEqual(check(doc), [])

    def test_bench_panels_still_checked(self):
        # The engine schema must not loosen the figure schema.
        doc = v3_doc()
        doc["panels"] = []
        self.assertTrue(any("panels" in e for e in check(doc)))

    def test_independent_docs_do_not_share_state(self):
        good = engine_doc()
        bad = copy.deepcopy(good)
        bad["overhead"]["arms"][0]["wall_seconds"] = float("nan")
        self.assertTrue(check(bad))
        self.assertEqual(check(good), [])


if __name__ == "__main__":
    sys.exit(unittest.main())
