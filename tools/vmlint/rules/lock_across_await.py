"""lock-across-await: no RAII guard may live across a suspension point.

The simulator is single-threaded, so a held std mutex guard never deadlocks
against another OS thread — which is exactly why holding one across a
`co_await` is insidious: every other coroutine the engine dispatches before
the wakeup runs *under* the guard. If any of them touches the same mutex the
program aborts (libstdc++ non-recursive mutexes) and, guard type aside, the
critical section silently stretches from "a few statements" to "an unbounded
slice of simulated time".

Guard types come from blocking.toml [guards]. Two subrules:

  co-await       the guard's scope textually contains a `co_await`
  blocking-call  the guard's scope contains a call that conservatively
                 resolves into the transitive blocking set (every candidate
                 definition blocks) — this is the cross-TU half: the callee
                 may hide its co_await three files away.

Scoped to src/. Suppress a deliberate hold with
`// vmlint:allow(lock-across-await) <reason>` on the declaration line.
"""

import callgraph
from core import Finding


def _angle_end(toks, i, end):
    depth, j = 1, i + 1
    while j < end and j - i < 64:
        x = toks[j].text
        if x == "<":
            depth += 1
        elif x == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif x == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif x in (";", "{", "}"):
            break
        j += 1
    return i + 1


def _scope_close(toks, i, end):
    """Index of the '}' closing the block that contains token i (or end)."""
    depth = 0
    while i < end:
        x = toks[i].text
        if x == "{":
            depth += 1
        elif x == "}":
            depth -= 1
            if depth < 0:
                return i
        i += 1
    return end


class LockAcrossAwaitRule:
    name = "lock-across-await"
    description = ("flags RAII guards (blocking.toml [guards]) held across "
                   "co_await or a call into the transitive blocking set")

    def prepare(self, project):
        self._graph = callgraph.get(project)
        self._guards = set(
            self._graph.config.get("guards", {}).get("types", []))

    def visit(self, sf, tokens):
        if not sf.in_dir("src"):
            return []
        graph = self._graph
        toks = graph.code_tokens(sf.rel)
        findings = []
        for fn in graph.functions_in(sf.rel):
            findings.extend(self._check(fn, toks, sf.rel))
        return findings

    def _check(self, fn, toks, rel):
        out = []
        blocking_sites = [s for s in fn.calls
                          if self._graph.is_blocking_call(s)]
        end = fn.body_end - 1  # exclude the closing '}'
        i = fn.body_start + 1
        while i < end:
            t = toks[i]
            if not (t.kind == "id" and t.text in self._guards):
                i += 1
                continue
            gtype = t.text
            j = i + 1
            if j < end and toks[j].text == "<":
                j = _angle_end(toks, j, end)
            if not (j + 1 < end and toks[j].kind == "id"
                    and toks[j + 1].text in ("(", "{")):
                i += 1
                continue
            var = toks[j].text
            close = _scope_close(toks, j, end)
            held = None
            for k in range(j, close):
                if toks[k].kind == "id" and toks[k].text == "co_await":
                    held = ("co-await",
                            f"a co_await (line {toks[k].line})")
                    break
            if held is None:
                for s in blocking_sites:
                    if j < s.name_index < close:
                        callee = s.cands[0].display() if s.cands else s.name
                        held = ("blocking-call",
                                f"a call to blocking {callee} "
                                f"(line {s.line})")
                        break
            if held is not None:
                subrule, what = held
                out.append(Finding(
                    self.name, rel, t.line,
                    f"RAII guard '{var}' ({gtype}) in {fn.display()} is "
                    f"live across {what}: every coroutine dispatched before "
                    "the wakeup runs under this guard — release it before "
                    "suspending (inner scope) or restructure the wait",
                    subrule=subrule))
            i = j + 1
        return out
