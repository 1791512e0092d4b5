#!/usr/bin/env python3
"""vmlint — vmstorm's project static-analysis driver.

Usage:
  tools/vmlint/vmlint.py [--root DIR] [--rules r1,r2,...] [--strict]
                         [--baseline FILE] [--fix-baseline]
                         [--hotpath-budget FILE] [--fix-hotpath-budget]
                         [--stats FILE] [--list-rules]

Runs the registered rules (see rules/__init__.py) over src/, tests/,
bench/, examples/ and tools/ (each rule scopes itself further). Exit 0
when clean, 1 on findings (or, with --strict, stale baseline/budget
entries), 2 on usage/configuration errors.

  --rules         comma-separated subset (default: all). Token rules:
                  determinism, coro-capture, layer-dag, status-discipline,
                  header-hygiene. Call-graph rules (cross-TU, see
                  callgraph.py): lock-across-await, unguarded-waiter,
                  hot-path-alloc, span-coverage.
  --baseline      grandfathered-findings file
                  (default: tools/vmlint/baseline.txt under --root)
  --fix-baseline  rewrite the baseline from current findings and exit 0
  --hotpath-budget       committed hot-path-alloc escape budget
                         (default: tools/vmlint/hotpath_budget.txt)
  --fix-hotpath-budget   rewrite the budget from the current
                         vmlint:allow(hot-path-alloc) escapes and exit 0
  --stats FILE    write machine-readable run stats as JSON ("-" = stdout):
                  per-rule wall timings and finding counts, plus call-graph
                  size (functions, call sites, blocking/hot set sizes) when
                  a graph rule ran
  --strict        fail on stale baseline/budget entries too (CI mode)
  --list-rules    print "name: description" per rule and exit

Suppress a deliberate finding with `// vmlint:allow(<rule>) <reason>` on
the same line or the line above; sub-rule names (e.g. naked-value) work
too. hot-path-alloc escapes are additionally reconciled against the committed budget file: an escape
that is not in the budget is a finding (unbudgeted-allow), and a budget
entry whose escape disappeared goes stale — the budget only ever shrinks.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import core                      # noqa: E402
from rules import ALL_RULES, make_rules  # noqa: E402


def _write_stats(path, project, result, n_new, n_grandfathered, n_stale):
    graph = getattr(project, "_vmlint_callgraph", None)
    flow = getattr(project, "_vmlint_dataflow", None)
    stats = {
        "schema": "vmstorm-vmlint-stats-v1",
        "files": len(project.files),
        "rules": result.timings,
        "total_seconds": round(sum(r["seconds"] for r in result.timings), 4),
        "findings": n_new,
        "grandfathered": n_grandfathered,
        "stale_entries": n_stale,
        "callgraph": graph.stats if graph is not None else None,
        "dataflow": flow.stats if flow is not None else None,
    }
    text = json.dumps(stats, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def main(argv):
    ap = argparse.ArgumentParser(prog="vmlint", add_help=True)
    ap.add_argument("--root", default=os.getcwd())
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule names (default: all)")
    ap.add_argument("--baseline", default=None)
    ap.add_argument("--fix-baseline", action="store_true")
    ap.add_argument("--hotpath-budget", default=None)
    ap.add_argument("--fix-hotpath-budget", action="store_true")
    ap.add_argument("--stats", default=None, metavar="FILE",
                    help="write run statistics as JSON ('-' for stdout)")
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.name}: {cls.description}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"vmlint: no src/ under {root}", file=sys.stderr)
        return 2
    baseline_path = args.baseline or os.path.join(
        root, "tools", "vmlint", "baseline.txt")
    budget_path = args.hotpath_budget or os.path.join(
        root, "tools", "vmlint", "hotpath_budget.txt")

    try:
        rules = make_rules(args.rules.split(",") if args.rules else None)
        project = core.walk_project(root)
        result = core.run_rules(project, rules)
    except ValueError as err:
        print(f"vmlint: {err}", file=sys.stderr)
        return 2

    findings = result.findings
    hot_allows = [(f, sf) for f, sf in result.allowed
                  if f.rule == "hot-path-alloc"]
    budget_active = any(r.name == "hot-path-alloc" for r in rules)

    if args.fix_baseline or args.fix_hotpath_budget:
        if args.fix_baseline:
            keys = [f.baseline_key(sf) for f, sf in findings]
            core.save_baseline(baseline_path, keys)
            print(f"vmlint: baseline rewritten with {len(keys)} entr(ies) "
                  f"at {os.path.relpath(baseline_path, root)}")
        if args.fix_hotpath_budget:
            keys = [f.baseline_key(sf) for f, sf in hot_allows]
            core.save_baseline(
                budget_path, keys, header=(
                    "# vmlint hot-path allocation budget — every committed\n"
                    "# vmlint:allow(hot-path-alloc) escape, one per line as\n"
                    "# <rule>\\t<path>\\t<normalized source line>.\n"
                    "# Regenerate with vmlint.py --fix-hotpath-budget.\n"
                    "# The pooled-WaitRecord/calendar-queue refactors are\n"
                    "# measured by shrinking this file; it must not grow.\n"))
            print(f"vmlint: hot-path budget rewritten with {len(keys)} "
                  "entr(ies) at "
                  f"{os.path.relpath(budget_path, root)}")
        return 0

    baseline = core.load_baseline(baseline_path)
    new, grandfathered, stale = core.apply_baseline(findings, baseline)

    budget_stale = []
    if budget_active:
        budget = core.load_baseline(budget_path)
        unbudgeted, _, budget_stale = core.apply_baseline(hot_allows, budget)
        rel_budget = os.path.relpath(budget_path, root)
        for f, sf in unbudgeted:
            new.append((core.Finding(
                "hot-path-alloc", f.rel, f.line,
                "vmlint:allow(hot-path-alloc) escape is not in the "
                f"committed budget ({rel_budget}): justify it there via "
                "--fix-hotpath-budget, or remove the allocation. "
                f"Escaped finding: {f.message}",
                subrule="unbudgeted-allow"), sf))
        new.sort(key=lambda pair: (pair[0].rel, pair[0].line,
                                   pair[0].rule_label()))

    if args.stats:
        _write_stats(args.stats, project, result, len(new),
                     len(grandfathered), len(stale) + len(budget_stale))
    return core.print_report(new, grandfathered, stale,
                             len(project.files), len(rules), args.strict,
                             budget_stale=budget_stale)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
