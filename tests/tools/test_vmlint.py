#!/usr/bin/env python3
"""vmlint framework self-test (pytest-free; registered as ctest
`vmlint_selftest`).

Covers the tokenizer's hard cases (raw strings, continuations, masked
lines), every rule against one violating + one clean fixture under
tests/tools/fixtures/, the allow/baseline escape hatches, layer-table
validation, and the CLI surface. Runs every test, prints one line per
test, exits nonzero if any failed.
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir))
VMLINT_DIR = os.path.join(REPO, "tools", "vmlint")
VMLINT_PY = os.path.join(VMLINT_DIR, "vmlint.py")
FIXTURES = os.path.join(HERE, "fixtures")

sys.path.insert(0, VMLINT_DIR)

import core  # noqa: E402
from rules import make_rules  # noqa: E402
from rules.layer_dag import load_layers  # noqa: E402
from tokenizer import tokenize, masked_lines  # noqa: E402


def run_rule(rule_name):
    """All reportable findings for one rule over the fixture tree, as a set
    of (rel, line, rule_label) triples. Allow-escaped findings are split out
    by run_rules and do not appear here."""
    project = core.walk_project(FIXTURES)
    result = core.run_rules(project, make_rules([rule_name]))
    return {(f.rel, f.line, f.rule_label()) for f, _ in result.findings}


def line_of(rel, marker):
    """1-based line of the first fixture line containing `marker`."""
    path = os.path.join(FIXTURES, rel)
    with open(path, encoding="utf-8") as f:
        for idx, line in enumerate(f):
            if marker in line:
                return idx + 1
    raise AssertionError(f"marker {marker!r} not found in {rel}")


# ---------------------------------------------------------------- tokenizer

def test_tokenizer_kinds():
    toks = tokenize('int x = 42; // c\nauto s = "hi\\"there";\n')
    kinds = [(t.kind, t.text) for t in toks]
    assert ("id", "int") in kinds and ("num", "42") in kinds, kinds
    assert ("comment", "// c") in kinds, kinds
    assert ("str", '"hi\\"there"') in kinds, kinds


def test_tokenizer_raw_strings():
    src = 'auto a = R"(no // comment "quotes" here)"; int b;'
    toks = tokenize(src)
    strs = [t for t in toks if t.kind == "str"]
    assert len(strs) == 1, strs
    assert strs[0].text == 'R"(no // comment "quotes" here)"', strs[0].text
    assert any(t.text == "b" for t in toks)

    # Custom delimiter containing a plain `)"` that must NOT close it.
    src = 'auto x = R"xy(inner )" still inner)xy"; f();'
    toks = tokenize(src)
    strs = [t for t in toks if t.kind == "str"]
    assert strs[0].text == 'R"xy(inner )" still inner)xy"', strs[0].text
    assert any(t.text == "f" for t in toks)

    # Prefixed raw string and prefixed ordinary string.
    toks = tokenize('u8R"(p)" L"wide" u8"narrow"')
    assert [t.kind for t in toks] == ["str", "str", "str"]


def test_tokenizer_line_continuation():
    # A // comment continued over a backslash-newline swallows both lines.
    src = "int a; // comment \\\nstill comment\nint b;"
    toks = tokenize(src)
    ids = [t.text for t in toks if t.kind == "id"]
    assert "b" in ids and "still" not in ids, ids
    comment = next(t for t in toks if t.kind == "comment")
    assert "still comment" in comment.text

    # Backslash-newline between tokens is plain whitespace.
    toks = tokenize("int \\\nc;")
    assert [t.text for t in toks if t.kind == "id"] == ["int", "c"]


def test_tokenizer_block_comments_and_lines():
    src = "a /* x\ny */ b\n"
    toks = tokenize(src)
    b = next(t for t in toks if t.text == "b")
    assert b.line == 2, b
    comment = next(t for t in toks if t.kind == "comment")
    assert comment.line == 1 and "y */" in comment.text


def test_tokenizer_numbers_and_chars():
    toks = tokenize("x = 1'000'000 + 0x1p-3 + 1e+9f; char c = '\\n';")
    nums = [t.text for t in toks if t.kind == "num"]
    assert nums == ["1'000'000", "0x1p-3", "1e+9f"], nums
    chars = [t.text for t in toks if t.kind == "char"]
    assert chars == ["'\\n'"], chars


def test_tokenizer_unterminated_tolerance():
    # Unterminated literals/comments close at EOL/EOF instead of raising.
    toks = tokenize('auto s = "oops\nint next;')
    assert any(t.text == "next" for t in toks)
    toks = tokenize("/* never closed\nint a;")
    assert toks[0].kind == "comment" and len(toks) == 1


def test_masked_lines():
    src = 'call("rand()"); // rand()\nreal_rand();\n'
    lines = masked_lines(src, tokenize(src))
    assert "rand" not in lines[0], lines[0]
    assert lines[1] == "real_rand();", lines[1]
    # Columns preserved: the `;` after the call keeps its position.
    assert lines[0].index(";") == src.splitlines()[0].index(";")


def test_tokenizer_if0_masking():
    src = ("int live1;\n"
           "#if 0\n"
           "rand();  // dead code, must be invisible\n"
           "#else\n"
           "int live2;\n"
           "#endif\n"
           "#if 1\n"
           "int live3;\n"
           "#else\n"
           "srand(7);\n"
           "#endif\n")
    toks = tokenize(src)
    ids = [t.text for t in toks if t.kind == "id"]
    assert "live1" in ids and "live2" in ids and "live3" in ids, ids
    assert "rand" not in ids and "srand" not in ids, ids
    # Disabled regions surface as 'disabled' tokens and mask out of
    # code_lines just like comments.
    assert any(t.kind == "disabled" for t in toks)
    lines = masked_lines(src, toks)
    assert "rand" not in "".join(lines)


def test_tokenizer_unknown_conditionals_stay_live():
    # Only literal #if 0 / #if 1 are evaluated; both arms of an unknown
    # condition must remain visible (a linter can't know the build config).
    src = ("#ifdef SOME_FLAG\n"
           "int arm_a;\n"
           "#else\n"
           "int arm_b;\n"
           "#endif\n")
    ids = [t.text for t in tokenize(src) if t.kind == "id"]
    assert "arm_a" in ids and "arm_b" in ids, ids


def test_tokenizer_nested_disabled_regions():
    src = ("#if 0\n"
           "#ifdef INNER\n"
           "rand();\n"
           "#endif\n"
           "more_dead();\n"
           "#endif\n"
           "int alive;\n")
    ids = [t.text for t in tokenize(src) if t.kind == "id"]
    assert ids == ["int", "alive"], ids


def test_tokenizer_macro_continuations_masked():
    # The body of a multi-line #define is directive text, not code: the
    # rand() on the continuation line must not leak into id tokens.
    src = ("#define LOOP(x) \\\n"
           "  for (int i = 0; i < (x); ++i) rand()\n"
           "int after;\n")
    toks = tokenize(src)
    ids = [t.text for t in toks if t.kind == "id"]
    assert "rand" not in ids, ids
    assert "after" in ids, ids


def test_tokenizer_if0_inside_comment_ignored():
    # Directives that only exist inside comments or strings are not
    # directives; the code after them stays live.
    src = ('/* #if 0 */\nint a;\nauto s = "#if 0";\nint b;\n')
    ids = [t.text for t in tokenize(src) if t.kind == "id"]
    assert "a" in ids and "b" in ids, ids


# --------------------------------------------------------------- rule tests

def test_determinism_rule():
    bad = "src/blob/det_bad.cpp"
    tests_bad = "tests/fuzz/rng_bad.cpp"
    got = run_rule("determinism")
    want = {
        (bad, line_of(bad, "hash-order-iter"), "determinism"),
        (bad, line_of(bad, "// wall-clock"), "determinism"),
        (bad, line_of(bad, "random-device"), "determinism"),
        (bad, line_of(bad, "ambient-rand"), "determinism"),
        (bad, line_of(bad, "// std-random-engine"),
         "determinism/std-random-engine"),
        # The engine ban is the one determinism check that reaches beyond
        # src/: fuzz/test harness randomness must be replayable too.
        (tests_bad, line_of(tests_bad, "std-random-engine-tests"),
         "determinism/std-random-engine"),
    }
    # det_good.cpp and tests/fuzz/rng_good.cpp contribute nothing.
    assert got == want, (got, want)


def test_coro_capture_rule():
    bad = "src/mirror/coro_bad.cpp"
    got = run_rule("coro-capture")
    want = {
        (bad, line_of(bad, "lambda-coro-capture"),
         "coro-capture/lambda-coro-capture"),
        (bad, line_of(bad, "spawned-capture"),
         "coro-capture/spawned-capture"),
        (bad, line_of(bad, "discarded-task"),
         "coro-capture/discarded-task"),
    }
    assert got == want, (got, want)


def test_layer_dag_rule():
    bad = "src/sim/layer_bad.cpp"
    got = run_rule("layer-dag")
    want = {
        (bad, line_of(bad, '"cloud/cloud.hpp"'), "layer-dag"),
        (bad, line_of(bad, '"storage/disk.hpp"'), "layer-dag"),
        ("src/rogue/rogue.cpp", 1, "layer-dag"),
    }
    assert got == want, (got, want)  # exception edge + comment not flagged


def test_status_discipline_rule():
    bad = "src/net/status_bad.cpp"
    got = run_rule("status-discipline")
    want = {
        (bad, line_of(bad, "raw-waiter-container"),
         "status-discipline/raw-waiter-container"),
        (bad, line_of(bad, "naked-value"),
         "status-discipline/naked-value"),
        (bad, line_of(bad, "void-suppressed-status"),
         "status-discipline/void-suppressed-status"),
        (bad, line_of(bad, "discarded-status"),
         "status-discipline/discarded-status"),
        (bad, line_of(bad, "unguarded-waiter-schedule"),
         "status-discipline/unguarded-waiter-schedule"),
    }
    assert got == want, (got, want)


def test_header_hygiene_rule():
    bad = "src/qcow/hdr_bad.hpp"
    got = run_rule("header-hygiene")
    want = {
        (bad, 1, "header-hygiene/missing-pragma-once"),
        (bad, line_of(bad, "unqualified-include"),
         "header-hygiene/unqualified-include"),
        (bad, line_of(bad, "unresolved-include"),
         "header-hygiene/unresolved-include"),
    }
    assert got == want, (got, want)


def test_lock_across_await_rule():
    bad = "src/sim/lock_bad.cpp"
    xtu = "src/storage/flow_caller.cpp"
    got = run_rule("lock-across-await")
    want = {
        (bad, line_of(bad, "lock-across-co-await"),
         "lock-across-await/co-await"),
        (bad, line_of(bad, "lock-across-blocking-call"),
         "lock-across-await/blocking-call"),
        # Cross-TU: the callee's co_await lives in flow_impl.cpp; the caller
        # only sees flow_pump.hpp's declaration. Catching this requires the
        # call graph to propagate blocking through the header.
        (xtu, line_of(xtu, "lock-across-blocking-call-xtu"),
         "lock-across-await/blocking-call"),
    }
    # lock_good.cpp (scoped release, non-blocking body, allow escape) and
    # flow_caller's caller_released contribute nothing.
    assert got == want, (got, want)


def test_unguarded_waiter_rule():
    bad = "src/sim/waiter_bad.cpp"
    got = run_rule("unguarded-waiter")
    want = {
        (bad, line_of(bad, "// unguarded-schedule"),
         "unguarded-waiter/unguarded-schedule"),
        (bad, line_of(bad, "// missing-audit-hook"),
         "unguarded-waiter/missing-audit-hook"),
    }
    # waiter_good.cpp (guarded + audited, and a guarded relay) is clean.
    assert got == want, (got, want)


def test_unguarded_waiter_flags_pr5_sleepawaiter_shape():
    """Regression: the PR 5 SleepAwaiter use-after-free scheduled a wakeup
    with no liveness guard; its fixture reproduction must stay flagged."""
    bad = "src/sim/waiter_bad.cpp"
    got = run_rule("unguarded-waiter")
    assert (bad, line_of(bad, "schedule_at(wake_at, h)"),
            "unguarded-waiter/unguarded-schedule") in got, got


def test_hot_path_alloc_rule():
    bad = "src/sim/hot_bad.cpp"
    got = run_rule("hot-path-alloc")
    want = {
        (bad, line_of(bad, "hot-alloc-call"),
         "hot-path-alloc/alloc-call"),
        (bad, line_of(bad, "hot-std-function"),
         "hot-path-alloc/std-function"),
        (bad, line_of(bad, "hot-new-expression"),
         "hot-path-alloc/new-expression"),
    }
    # hot_good.cpp: cold allocations and the budget-tracked allow escape
    # produce no reportable findings (the escape lands in result.allowed).
    assert got == want, (got, want)


def test_span_coverage_rule():
    bad = "src/sim/span_bad.cpp"
    got = run_rule("span-coverage")
    want = {
        (bad, line_of(bad, "span-coverage-bad"), "span-coverage"),
    }
    # span_good.cpp records its edge in await_resume; waiter fixtures'
    # awaiters record theirs too.
    assert got == want, (got, want)


def test_determinism_taint_rule():
    """Interprocedural host-taint: every leak shape in sink.cpp is found at
    exactly its marker line; the host scope, the env_or sanitizer and the
    allow escape stay silent."""
    sink = "src/obs/sink.cpp"
    got = run_rule("determinism-taint")
    want = {
        (sink, line_of(sink, "taint-cross-tu"),
         "determinism-taint/metric-write"),
        (sink, line_of(sink, "taint-field-store"),
         "determinism-taint/metric-write"),
        (sink, line_of(sink, "taint-note-inside"),
         "determinism-taint/metric-write"),
        (sink, line_of(sink, "taint-arg-to-sink"),
         "determinism-taint/metric-write"),
        (sink, line_of(sink, "taint-transparent"),
         "determinism-taint/metric-write"),
        (sink, line_of(sink, "taint-hostsplit-regress"),
         "determinism-taint/metric-write"),
        (sink, line_of(sink, "taint-trace-payload"),
         "determinism-taint/trace-payload"),
        # Through the callee: SpanScope::finish forwards to complete_span,
        # so both the call and the entry-tainted forward are findings.
        (sink, line_of(sink, "taint-span-args"),
         "determinism-taint/trace-payload"),
        (sink, line_of(sink, "taint-span-inside"),
         "determinism-taint/trace-payload"),
        (sink, line_of(sink, "taint-fingerprint"),
         "determinism-taint/fingerprint"),
        (sink, line_of(sink, "taint-env-direct"),
         "determinism-taint/metric-write"),
        # Only reachable under propagation = "any": blend(1) could bind to
        # probe.cpp's tainted overload as well as sink.cpp's clean one.
        (sink, line_of(sink, "taint-any-candidate"),
         "determinism-taint/metric-write"),
    }
    # ok-host-scope, ok-sanitized and probe.cpp contribute nothing;
    # ok-allow-escape lands in result.allowed, not here.
    assert got == want, (got, want)


def test_determinism_taint_flags_pr7_hostsplit_shape():
    """Regression: the PR 7 host/sim split is now statically enforced — a
    host_gauge reading re-published through a deterministic handle (and
    hence reaching to_json's fingerprinted export) must stay a finding."""
    sink = "src/obs/sink.cpp"
    got = run_rule("determinism-taint")
    assert (sink, line_of(sink, "taint-hostsplit-regress"),
            "determinism-taint/metric-write") in got, got


def test_rng_flow_rule():
    bad = "src/sim/rngflow_bad.cpp"
    got = run_rule("rng-flow")
    want = {
        (bad, line_of(bad, "rngflow-ctor"), "rng-flow/rng-seed"),
        (bad, line_of(bad, "rngflow-mix"), "rng-flow/rng-seed"),
        (bad, line_of(bad, "rngflow-schedule"), "rng-flow/sim-schedule"),
        # std::mt19937 as a source *type*: the engine object itself is
        # tainted, and invoking it yields a tainted value.
        (bad, line_of(bad, "rngflow-engine-ctor"), "rng-flow/rng-seed"),
    }
    # rngflow_good.cpp (config-seeded Rng, constant delay) contributes
    # nothing; the determinism rule's own fixtures have no entropy sinks.
    assert got == want, (got, want)


def test_env_discipline_rule():
    rogue = "src/common/env_rogue.cpp"
    sink = "src/obs/sink.cpp"
    got = run_rule("env-read-discipline")
    want = {
        (rogue, line_of(rogue, "env-raw-rogue"),
         "env-read-discipline/raw-getenv"),
        (sink, line_of(sink, "env-raw-sink-file"),
         "env-read-discipline/raw-getenv"),
    }
    # env.cpp is the sanctioned shim TU (taint.toml [env] shim_files) and
    # rogue_read's first getenv carries an allow escape.
    assert got == want, (got, want)


def test_file_io_discipline_rule():
    bad = "src/apps/fileio_bad.cpp"
    got = run_rule("file-io-discipline")
    want = {
        (bad, line_of(bad, marker), "file-io-discipline/raw-file-stream")
        for marker in ("fileio-include", "fileio-ofstream", "fileio-freopen")
    }
    # fileio_good.cpp names them only in a comment, a string and a member;
    # src/common/file_io.cpp is the helpers' own TU; tests/ is out of
    # scope; and the fopen in fileio_bad.cpp carries an allow escape.
    assert got == want, (got, want)


def test_callgraph_cross_tu_blocking():
    """Blocking propagates from a co_await in one TU, through a
    header-declared function, to callers in another TU; hot-set closure
    covers same-class calls."""
    import callgraph
    project = core.walk_project(FIXTURES)
    graph = callgraph.get(project)
    by_disp = {}
    for fn in graph.functions:
        by_disp.setdefault(fn.display(), []).append(fn)

    def one(disp, rel):
        return next(f for f in by_disp[disp] if f.rel == rel)

    pump = one("fixture::pump_through_header", "src/storage/flow_impl.cpp")
    assert pump.has_co_await and pump.blocking

    caller = one("fixture::caller_with_guard", "src/storage/flow_caller.cpp")
    assert caller.blocking and not caller.has_co_await

    helper = one("fixture::helper_waits", "src/sim/lock_bad.cpp")
    locked = one("fixture::locked_across_call", "src/sim/lock_bad.cpp")
    assert helper.blocking and locked.blocking

    cold = one("fixture::cold_setup", "src/sim/hot_bad.cpp")
    assert not cold.blocking and not cold.hot

    run = one("fixture::Engine::run", "src/sim/hot_bad.cpp")
    enqueue = one("fixture::Engine::enqueue", "src/sim/hot_bad.cpp")
    assert run.hot and enqueue.hot
    assert enqueue.hot_root == "Engine::run"

    prepare = one("fixture::Warmup::prepare", "src/sim/hot_good.cpp")
    assert not prepare.hot


# ----------------------------------------------------- escapes and baseline

def test_baseline_roundtrip():
    project = core.walk_project(FIXTURES)
    findings = core.run_rules(project, make_rules(["determinism"])).findings
    assert findings
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "baseline.txt")
        core.save_baseline(path, [f.baseline_key(sf) for f, sf in findings])
        baseline = core.load_baseline(path)
        new, grandfathered, stale = core.apply_baseline(findings, baseline)
        assert not new and not stale, (new, stale)
        assert len(grandfathered) == len(findings)

        # A baseline entry whose finding was fixed reads as stale; --strict
        # turns that into a failure, the default mode does not.
        baseline["determinism\tsrc/gone.cpp\trand();"] += 1
        new, grandfathered, stale = core.apply_baseline(findings, baseline)
        assert len(stale) == 1, stale
        devnull = open(os.devnull, "w")
        assert core.print_report(new, grandfathered, stale, 1, 1,
                                 strict=False, out=devnull) == 0
        assert core.print_report(new, grandfathered, stale, 1, 1,
                                 strict=True, out=devnull) == 1
        devnull.close()


def test_layers_validation():
    with tempfile.TemporaryDirectory() as tmp:
        cyclic = os.path.join(tmp, "cyclic.toml")
        with open(cyclic, "w") as f:
            f.write('[layers]\na = ["b"]\nb = ["a"]\n')
        try:
            load_layers(cyclic)
            raise AssertionError("cycle not detected")
        except ValueError as err:
            assert "cycle" in str(err), err

        dangling = os.path.join(tmp, "dangling.toml")
        with open(dangling, "w") as f:
            f.write('[layers]\na = ["ghost"]\n')
        try:
            load_layers(dangling)
            raise AssertionError("undeclared dep not detected")
        except ValueError as err:
            assert "undeclared" in str(err), err


# ----------------------------------------------------------------- CLI end

def test_cli_reports_file_line():
    proc = subprocess.run(
        [sys.executable, VMLINT_PY, "--root", FIXTURES,
         "--rules", "determinism", "--strict"],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc
    bad = "src/blob/det_bad.cpp"
    expected = f"{bad}:{line_of(bad, 'ambient-rand')}: determinism:"
    assert expected in proc.stdout, (expected, proc.stdout)


def test_cli_list_rules():
    proc = subprocess.run([sys.executable, VMLINT_PY, "--list-rules"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc
    for rule in ("determinism", "coro-capture", "layer-dag",
                 "status-discipline", "header-hygiene", "lock-across-await",
                 "unguarded-waiter", "hot-path-alloc", "span-coverage",
                 "determinism-taint", "rng-flow", "env-read-discipline",
                 "file-io-discipline"):
        assert rule in proc.stdout, (rule, proc.stdout)


def test_cli_unknown_rule():
    proc = subprocess.run(
        [sys.executable, VMLINT_PY, "--root", FIXTURES, "--rules", "bogus"],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc
    assert "unknown rule" in proc.stderr, proc.stderr


def test_cli_stats_json():
    import json
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = os.path.join(tmp, "stats.json")
        proc = subprocess.run(
            [sys.executable, VMLINT_PY, "--root", FIXTURES,
             "--rules", "lock-across-await,span-coverage",
             "--baseline", os.devnull, "--stats", stats_path],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc  # fixtures contain findings
        with open(stats_path, encoding="utf-8") as f:
            stats = json.load(f)
    assert stats["schema"] == "vmstorm-vmlint-stats-v1", stats
    assert stats["findings"] == 4, stats  # 3 lock + 1 span
    assert {r["rule"] for r in stats["rules"]} == {
        "lock-across-await", "span-coverage"}, stats
    assert all(r["seconds"] >= 0 for r in stats["rules"]), stats
    # Graph-backed runs report call-graph shape for CI budget tracking.
    assert stats["callgraph"] is not None, stats
    assert stats["callgraph"]["functions"] > 0, stats
    assert stats["callgraph"]["blocking_set"] > 0, stats


def test_cli_dataflow_stats():
    """Taint-rule runs export dataflow shape (per-kind fixpoint counters)
    through --stats, next to the call-graph block — the CI drift job reads
    these to budget the analysis."""
    import json
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = os.path.join(tmp, "stats.json")
        proc = subprocess.run(
            [sys.executable, VMLINT_PY, "--root", FIXTURES,
             "--rules", "determinism-taint,rng-flow",
             "--baseline", os.devnull, "--stats", stats_path],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc  # fixtures contain findings
        with open(stats_path, encoding="utf-8") as f:
            stats = json.load(f)
    flow = stats["dataflow"]
    assert flow is not None, stats
    assert flow["propagation"] == "any", flow
    assert flow["functions"] > 0, flow
    for kind in ("host", "entropy"):
        ks = flow["kinds"][kind]
        assert ks["iterations"] >= 1, ks
        assert ks["findings"] > 0, ks
    # The cross-TU leaks require real summary propagation, not a degenerate
    # single-pass run.
    assert flow["kinds"]["host"]["tainted_returns"] > 0, flow
    assert flow["kinds"]["host"]["entry_tainted_params"] > 0, flow
    # Non-taint runs keep the block null (see test_cli_stats_json's rules).
    assert stats["callgraph"] is not None, stats


def test_cli_hotpath_budget_roundtrip():
    """The allow(hot-path-alloc) escape in hot_good.cpp must be reconciled
    against the budget file: unbudgeted -> finding, budgeted -> clean,
    budgeted-but-gone -> stale (fails --strict only)."""
    base = [sys.executable, VMLINT_PY, "--root", FIXTURES,
            "--rules", "hot-path-alloc", "--baseline", os.devnull]
    with tempfile.TemporaryDirectory() as tmp:
        budget = os.path.join(tmp, "budget.txt")

        # No budget file: the escape is reported as unbudgeted-allow.
        proc = subprocess.run(base + ["--hotpath-budget", budget],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc
        assert "hot-path-alloc/unbudgeted-allow" in proc.stdout, proc.stdout

        # --fix-hotpath-budget writes it; the run is then clean except for
        # hot_bad.cpp's real findings.
        proc = subprocess.run(
            base + ["--hotpath-budget", budget, "--fix-hotpath-budget"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc
        with open(budget, encoding="utf-8") as f:
            entries = [ln for ln in f.read().splitlines()
                       if ln and not ln.startswith("#")]
        assert len(entries) == 1 and "hot_good.cpp" in entries[0], entries
        proc = subprocess.run(base + ["--hotpath-budget", budget],
                              capture_output=True, text=True)
        assert "unbudgeted-allow" not in proc.stdout, proc.stdout

        # A stale budget entry (escape removed) fails only under --strict.
        with open(budget, "a", encoding="utf-8") as f:
            f.write("hot-path-alloc\tsrc/sim/gone.cpp\tpush_back(x);\n")
        proc = subprocess.run(base + ["--hotpath-budget", budget],
                              capture_output=True, text=True)
        assert "stale hot-path budget entry" in proc.stdout, proc.stdout
        proc = subprocess.run(
            base + ["--hotpath-budget", budget, "--strict"],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as err:
            failed += 1
            print(f"FAIL {name}: {err}")
    print(f"test_vmlint: {len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
