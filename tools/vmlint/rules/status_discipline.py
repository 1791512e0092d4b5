"""status-discipline: the tools/lint_status.py checks, ported to vmlint.

The compiler already enforces most Status discipline through [[nodiscard]]
on Status/Result/Task; these sub-rules catch what slips through the type
system. Ported verbatim in spirit from the retired tools/lint_status.py,
now running on the shared tokenizer's masked lines (so block comments and
raw strings can no longer false-positive).

  raw-waiter-container   vector/deque of raw std::coroutine_handle<>.
                         Store std::shared_ptr<sim::WaitRecord> and wake
                         via sim::alive_guard instead (a destroyed waiter
                         must never be resumed).
  unguarded-waiter-schedule
                         schedule_at/schedule_after of a handle taken from
                         a waiter record/list without the alive guard
                         (third argument).
  void-suppressed-status (void)-cast of a call returning Status/Result.
  discarded-status       bare statement call of a Status/Result-returning
                         function (reached through a reference or macro
                         the compiler cannot see through).
  naked-value            Result<T>::value()/value_unchecked()/check() in
                         library code without a preceding is_ok()/
                         truthiness guard.

Waiter-container rules apply everywhere (a stale handle in a test is still
UB); the Status rules apply to src/ only — tests/bench may .value() freely,
a crash there is a test failure, not data corruption.
"""

import re

from core import Finding

GUARD_LOOKBACK_LINES = 8

RE_RAW_WAITER = re.compile(
    r"(?:std::)?(?:vector|deque)\s*<\s*std::coroutine_handle\b")
RE_SCHEDULE = re.compile(r"schedule_(?:at|after)\s*\(\s*(?P<args>[^;]*)\)")
RE_VALUE = re.compile(
    r"[\w\)\]]\s*\.\s*(?:value(?:_unchecked)?|check)\s*\(\s*\)")
RE_DECL_STATUS_FN = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?"
    r"(?:virtual\s+|static\s+|inline\s+|friend\s+|constexpr\s+)*"
    r"(?:vmstorm::)?(?:Status|Result\s*<[^;{()]*>)\s+"
    r"(?P<name>\w+)\s*\(")
RE_DECL_VOID_FN = re.compile(
    r"^\s*(?:virtual\s+|static\s+|inline\s+|constexpr\s+)*"
    r"void\s+(?P<name>\w+)\s*\(")
RE_BARE_CALL = re.compile(
    r"^\s*(?:\w+(?:\.|->))?(?P<name>\w+)\s*\([^;]*\)\s*;\s*$")
RE_VOID_CAST_CALL = re.compile(
    r"\(void\)\s*(?:\w+(?:\.|->))*(?P<name>\w+)\s*\(")

MESSAGES = {
    "raw-waiter-container":
        "raw coroutine-handle waiter container; store "
        "std::shared_ptr<sim::WaitRecord> and wake via sim::alive_guard",
    "unguarded-waiter-schedule":
        "scheduling a stored waiter handle without an alive guard; pass "
        "sim::alive_guard(rec) as the third argument",
    "void-suppressed-status":
        "(void)-cast discards a Status/Result; handle or propagate it",
    "discarded-status":
        "bare call discards a Status/Result return value",
    "naked-value":
        "Result::value() without a preceding is_ok()/truthiness guard",
}


def _schedule_violations(code):
    """Two-argument schedule calls whose handle came from a record/list."""
    for m in RE_SCHEDULE.finditer(code):
        args = m.group("args")
        depth, commas = 0, 0
        for ch in args:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == "," and depth == 0:
                commas += 1
        if commas != 1:
            continue  # 3-arg call: guard already passed
        handle_expr = args.split(",", 1)[1].strip()
        if re.search(r"(?:->|\.)\s*handle\b|\brec\b|\bwaiter", handle_expr):
            yield handle_expr


def _has_value_guard(code_lines, idx):
    window = code_lines[max(0, idx - GUARD_LOOKBACK_LINES):idx + 1]
    text = "\n".join(window)
    if re.search(r"\bis_ok\s*\(\s*\)", text):
        return True
    if re.search(r"\b(?:if|while)\s*\(\s*!?\s*\*?\w+\s*[\)&|]", text):
        return True
    return False


class StatusDisciplineRule:
    name = "status-discipline"
    description = ("Status/Result discard, unguarded Result::value(), and "
                   "raw coroutine-waiter lifetime checks")

    def prepare(self, project):
        """Names of src-header functions returning Status/Result, minus any
        name that also appears with a void return (cross-class collisions)."""
        status_fns, void_fns = set(), set()
        for sf in project.sources():
            if not sf.in_dir("src") or not sf.rel.endswith((".hpp", ".h")):
                continue
            for code in sf.code_lines:
                m = RE_DECL_STATUS_FN.match(code)
                if m:
                    status_fns.add(m.group("name"))
                m = RE_DECL_VOID_FN.match(code)
                if m:
                    void_fns.add(m.group("name"))
        self._registry = status_fns - void_fns

    def visit(self, sf, tokens):
        findings = []
        in_src = sf.in_dir("src")
        is_status_hpp = sf.rel == "src/common/status.hpp"

        def report(idx, subrule, detail=""):
            msg = MESSAGES[subrule] + (f" [{detail}]" if detail else "")
            findings.append(Finding(self.name, sf.rel, idx + 1, msg,
                                    subrule=subrule))

        for idx, code in enumerate(sf.code_lines):
            # Everywhere: raw waiter containers and unguarded wakeups.
            if RE_RAW_WAITER.search(code):
                report(idx, "raw-waiter-container")
            for handle_expr in _schedule_violations(code):
                report(idx, "unguarded-waiter-schedule", handle_expr)

            if not in_src or is_status_hpp:
                continue

            m = RE_VOID_CAST_CALL.search(code)
            if m and m.group("name") in self._registry:
                report(idx, "void-suppressed-status", m.group("name"))

            m = RE_BARE_CALL.match(code)
            if (m and m.group("name") in self._registry
                    and "co_await" not in code and "co_yield" not in code
                    and code.count("(") == code.count(")")):
                # Unbalanced parens = continuation of a multi-line macro
                # call, not a bare statement.
                report(idx, "discarded-status", m.group("name"))

            if RE_VALUE.search(code) and not _has_value_guard(
                    sf.code_lines, idx):
                report(idx, "naked-value")
        return findings
