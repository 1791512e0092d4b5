"""vmlint core: source model, rule API, allow-escapes, baseline, runner.

A rule is a class with:

    name        kebab-case rule id ("determinism")
    description one-line summary printed by --list-rules
    def prepare(self, project): ...                  # optional, once per run
    def visit(self, file, tokens) -> [Finding]       # once per SourceFile

Findings are suppressed three ways, in order:

  1. `// vmlint:allow(<rule>[, <rule>...]) <reason>` on the finding line or
     the line above. Sub-rule names (e.g. `naked-value`) and the parent rule
     name both match.
  2. The committed baseline file (grandfathered findings; see Baseline).
  3. Rules self-scope by path (e.g. determinism checks src/ only).

Baseline entries key on (rule, path, normalized line text) rather than line
numbers, so unrelated edits that shift lines do not invalidate the baseline.
`--fix-baseline` rewrites it from the current findings; `--strict` fails on
stale entries so the baseline only ever shrinks.
"""

import collections
import os
import re
import sys
import time

from tokenizer import tokenize, masked_lines

RE_ALLOW = re.compile(r"vmlint:allow\((?P<rules>[\w\-, /]+)\)")

# Directories skipped while walking scan roots. `fixtures` holds deliberate
# rule violations for the self-test; build trees hold generated TUs.
SKIP_DIRS = ("fixtures",)

SOURCE_EXTS = (".hpp", ".h", ".cpp", ".cc")
SCAN_ROOTS = ("src", "tests", "bench", "examples", "tools")


class Finding:
    """One diagnostic: rule (+ optional sub-rule), file, 1-based line."""

    def __init__(self, rule, rel, line, message, subrule=""):
        self.rule = rule
        self.subrule = subrule
        self.rel = rel
        self.line = line
        self.message = message

    def rule_label(self):
        return f"{self.rule}/{self.subrule}" if self.subrule else self.rule

    def render(self):
        return f"{self.rel}:{self.line}: {self.rule_label()}: {self.message}"

    def baseline_key(self, file):
        text = ""
        if file is not None and 1 <= self.line <= len(file.lines):
            text = re.sub(r"\s+", " ", file.lines[self.line - 1].strip())
        return f"{self.rule_label()}\t{self.rel}\t{text}"


class SourceFile:
    """A lexed source file plus derived views shared by all rules."""

    def __init__(self, root, rel):
        self.rel = rel.replace(os.sep, "/")
        self.path = os.path.join(root, rel)
        with open(self.path, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.lines = self.text.splitlines()
        self.tokens = tokenize(self.text)
        # Lines with comments/literal contents blanked, columns preserved.
        self.code_lines = masked_lines(self.text, self.tokens)
        # line number -> set of rule names allowed on that line.
        self.allows = collections.defaultdict(set)
        for t in self.tokens:
            if t.kind != "comment":
                continue
            for off, cline in enumerate(t.text.splitlines()):
                m = RE_ALLOW.search(cline)
                if m:
                    self.allows[t.line + off].update(
                        r.strip() for r in m.group("rules").split(","))
        # Lines that are pure comment (non-blank source, no code): an allow
        # marker anywhere in the comment block directly above a finding
        # counts, so multi-line justifications don't have to contort to keep
        # the marker on the last line.
        self.comment_only = {
            i + 1 for i, code in enumerate(self.code_lines)
            if not code.strip() and i < len(self.lines)
            and self.lines[i].strip()}

    def in_dir(self, *tops):
        return any(self.rel == t or self.rel.startswith(t + "/") for t in tops)

    def allowed(self, finding):
        """vmlint:allow / lint:allow on the finding line, the line above, or
        anywhere in the contiguous comment block ending on the line above."""
        names = {finding.rule, finding.rule_label()}
        if finding.subrule:
            names.add(finding.subrule)
        if not self.allows[finding.line].isdisjoint(names):
            return True
        ln = finding.line - 1
        while ln >= 1:
            if not self.allows[ln].isdisjoint(names):
                return True
            if ln not in self.comment_only:
                break
            ln -= 1
        return False


class Project:
    """All scanned files, keyed by repo-relative posix path."""

    def __init__(self, root, files):
        self.root = root
        self.files = files  # dict rel -> SourceFile

    def get(self, rel):
        return self.files.get(rel)

    def sources(self):
        return [self.files[rel] for rel in sorted(self.files)]


def walk_project(root, roots=SCAN_ROOTS):
    files = {}
    for top in roots:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".")
                                 and not d.startswith("build")
                                 and d not in SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    sf = SourceFile(root, rel)
                    files[sf.rel] = sf
    return Project(root, files)


def load_baseline(path):
    """Baseline file -> Counter of baseline keys. Missing file = empty."""
    entries = collections.Counter()
    if not os.path.isfile(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            entries[line] += 1
    return entries


_BASELINE_HEADER = (
    "# vmlint baseline — grandfathered findings, one per line as\n"
    "# <rule>\\t<path>\\t<normalized source line>.\n"
    "# Regenerate with tools/vmlint/vmlint.py --fix-baseline. The goal\n"
    "# state of this file is EMPTY: fix findings instead of adding here.\n")


def save_baseline(path, keyed_findings, header=_BASELINE_HEADER):
    with open(path, "w", encoding="utf-8") as f:
        f.write(header)
        for key in sorted(keyed_findings):
            f.write(key + "\n")


class RunResult:
    """Outcome of run_rules: reportable findings, allow-escaped findings
    (the hot-path budget is reconciled against these), and per-rule wall
    timings for --stats."""

    def __init__(self, findings, allowed, timings):
        self.findings = findings  # [(Finding, SourceFile)] not allow-escaped
        self.allowed = allowed    # [(Finding, SourceFile)] allow-escaped
        self.timings = timings    # [{"rule", "seconds", "findings", ...}]


def _sorted_pairs(pairs):
    pairs.sort(key=lambda pair: (pair[0].rel, pair[0].line,
                                 pair[0].rule_label()))
    return pairs


def run_rules(project, rules):
    """Runs each rule over the project. Returns a RunResult; allow-escaped
    findings are split out (not dropped) so the driver can reconcile
    hot-path-alloc escapes against the committed budget. Both lists are
    sorted for deterministic output."""
    findings, allowed, timings = [], [], []
    for rule in rules:
        t0 = time.perf_counter()
        n_find = n_allow = 0
        prepare = getattr(rule, "prepare", None)
        if prepare:
            prepare(project)
        for sf in project.sources():
            for finding in rule.visit(sf, sf.tokens):
                if sf.allowed(finding):
                    allowed.append((finding, sf))
                    n_allow += 1
                else:
                    findings.append((finding, sf))
                    n_find += 1
        timings.append({
            "rule": rule.name,
            "seconds": round(time.perf_counter() - t0, 4),
            "findings": n_find,
            "allowed": n_allow,
        })
    return RunResult(_sorted_pairs(findings), _sorted_pairs(allowed),
                     timings)


def apply_baseline(findings, baseline):
    """Splits findings into (new, grandfathered) and reports stale baseline
    entries (present in the file, no longer found)."""
    remaining = collections.Counter(baseline)
    new, grandfathered = [], []
    for finding, sf in findings:
        key = finding.baseline_key(sf)
        if remaining[key] > 0:
            remaining[key] -= 1
            grandfathered.append((finding, sf))
        else:
            new.append((finding, sf))
    stale = [k for k, c in sorted(remaining.items()) for _ in range(c)]
    return new, grandfathered, stale


def print_report(new, grandfathered, stale, n_files, n_rules, strict,
                 out=sys.stdout, budget_stale=()):
    for finding, _ in new:
        print(finding.render(), file=out)
    for key in stale:
        print(f"stale baseline entry (fix with --fix-baseline): {key}",
              file=out)
    for key in budget_stale:
        print("stale hot-path budget entry "
              f"(fix with --fix-hotpath-budget): {key}", file=out)
    failed = bool(new) or (strict and bool(stale or budget_stale))
    status = "FAILED" if failed else "OK"
    extra = f", {len(grandfathered)} baselined" if grandfathered else ""
    stale_bits = f"{len(stale)} stale baseline entr(ies)"
    if budget_stale:
        stale_bits += f", {len(budget_stale)} stale budget entr(ies)"
    print(f"vmlint: {status} — {len(new)} finding(s){extra}, "
          f"{stale_bits} in {n_files} file(s) "
          f"across {n_rules} rule(s)", file=out)
    return 1 if failed else 0
