"""unguarded-waiter: wakeups must be liveness-guarded and auditor-visible.

The PR 5 fuzzer found a real use-after-free: `Engine::SleepAwaiter`
scheduled its wakeup with no liveness guard, so a waiter destroyed before
its wakeup fired (coroutine cancelled, awaiter on a dead frame) left the
engine resuming a dangling handle. That bug class is statically detectable:
the primitive *registers* a wakeup, and registration without a guard is
visible in the call graph. This rule makes the shape a lint error so the
next blocking primitive is caught at lint time, not fuzz time.

A function is in scope when it is an `await_suspend` or its signature/body
touches `WaitRecord` (creation via make_wait_record /
make_shared<WaitRecord> included). Two subrules:

  unguarded-schedule   a schedule_at/schedule_after call whose argument list
                       carries no alive_guard(...): the scheduled wakeup can
                       outlive the waiter it resumes.
  missing-audit-hook   the function creates a WaitRecord *and* schedules a
                       wakeup but never calls on_wakeup_scheduled, so the
                       runtime InvariantAuditor (tests/fuzz) cannot pair the
                       record with its wakeup — the dead-waiter oracle that
                       found the PR 5 bug goes blind for this primitive.

This is the static twin of the fuzzer's dead-waiter oracle (see
tests/fuzz/README.md). Scoped to src/.
"""

import callgraph
from core import Finding

_SCHED = ("schedule_at", "schedule_after")


class UnguardedWaiterRule:
    name = "unguarded-waiter"
    description = ("blocking primitives must schedule wakeups through "
                   "alive_guard and register created WaitRecords with the "
                   "auditor (on_wakeup_scheduled)")

    def prepare(self, project):
        self._graph = callgraph.get(project)

    def visit(self, sf, tokens):
        if not sf.in_dir("src"):
            return []
        graph = self._graph
        toks = graph.code_tokens(sf.rel)
        findings = []
        for fn in graph.functions_in(sf.rel):
            creates = callgraph.creates_wait_record(toks, fn)
            relevant = (fn.name == "await_suspend" or creates
                        or callgraph.mentions_wait_record(toks, fn))
            if not relevant:
                continue
            sched = [s for s in fn.calls if s.name in _SCHED]
            audited = any(s.name == "on_wakeup_scheduled" for s in fn.calls)
            for s in sched:
                guarded = any(
                    toks[k].kind == "id" and toks[k].text == "alive_guard"
                    for k in range(s.name_index + 1, s.args_end))
                if not guarded:
                    findings.append(Finding(
                        self.name, sf.rel, s.line,
                        f"{fn.display()} schedules a wakeup via {s.name} "
                        "with no alive_guard(...): if the waiter dies before "
                        "the wakeup fires, the engine resumes a dangling "
                        "handle (the PR 5 SleepAwaiter use-after-free shape)",
                        subrule="unguarded-schedule"))
            if creates and sched and not audited:
                findings.append(Finding(
                    self.name, sf.rel, sched[0].line,
                    f"{fn.display()} creates a WaitRecord and schedules its "
                    "wakeup but never calls on_wakeup_scheduled: the "
                    "InvariantAuditor's dead-waiter oracle cannot see this "
                    "primitive — register the record when scheduling",
                    subrule="missing-audit-hook"))
        return findings
