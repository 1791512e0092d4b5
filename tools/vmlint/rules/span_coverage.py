"""span-coverage: every blocking primitive must emit a causal wait edge.

PR 4's critical-path attribution is only as complete as the wait edges the
primitives emit: a blocking awaiter that registers a WaitRecord but never
calls record_wait_edge (sim/causal.hpp) produces waits the tracer cannot
attribute, and the critical path silently routes around them. This rule
closes the loop structurally: for every awaiter class whose await_suspend
creates a WaitRecord, *some* method of that class (in practice
await_resume, where the wait duration is known) must call record_wait_edge.

The check groups methods by their namespace-stripped class key, so a
local `struct Awaiter` inside a method and out-of-line definitions
(causal.hpp's WaitQueue::Awaiter members, engine.cpp's
Engine::SleepAwaiter::await_suspend) both resolve to the same class.
Findings anchor at the await_suspend definition. Scoped to src/.
"""

import collections

import callgraph
from core import Finding


class SpanCoverageRule:
    name = "span-coverage"
    description = ("awaiters that register a WaitRecord must record a "
                   "causal wait edge (record_wait_edge, sim/causal.hpp)")

    def prepare(self, project):
        self._graph = callgraph.get(project)
        self._groups = collections.defaultdict(list)
        for fn in self._graph.functions:
            if fn.cls:
                self._groups[fn.cls].append(fn)

    def visit(self, sf, tokens):
        if not sf.in_dir("src"):
            return []
        graph = self._graph
        toks = graph.code_tokens(sf.rel)
        findings = []
        for fn in graph.functions_in(sf.rel):
            if fn.name != "await_suspend" or not fn.cls:
                continue
            if not callgraph.creates_wait_record(toks, fn):
                continue
            group = self._groups.get(fn.cls, [fn])
            covered = any(s.name == "record_wait_edge"
                          for g in group for s in g.calls)
            if not covered:
                findings.append(Finding(
                    self.name, sf.rel, fn.line,
                    f"{fn.display()} registers a WaitRecord but no method "
                    f"of {fn.cls} calls record_wait_edge: waits through "
                    "this primitive are invisible to causal tracing and "
                    "critical-path attribution (sim/causal.hpp) — record "
                    "the edge in await_resume",
                ))
        return findings
