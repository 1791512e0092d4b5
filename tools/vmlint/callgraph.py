"""callgraph: a project-wide function/call graph over the vmlint token stream.

This is the cross-TU half of vmlint. A tolerant recursive-descent pass over
each file's code tokens (comments, literals, and disabled preprocessor
regions already stripped by the tokenizer) recovers:

  * function definitions — free functions, inline methods, out-of-line
    qualified methods, constructors (member-init lists), destructors, and
    methods of struct types declared *inside* a function body (the
    simulator's local `Awaiter` idiom);
  * call sites — name, `::` qualifier chain, member-ness (`.`/`->`), and
    the token span of the argument list;
  * `co_await` occurrences per function body.

On top of that it computes two transitive sets configured by blocking.toml:

  blocking  — functions that can reach a suspension point: seeded by bodies
              containing `co_await` plus the configured blocking leaves
              (Engine::sleep, FifoServer::serve, Semaphore::acquire, ...),
              closed under a fixpoint over call edges.
  hot       — functions reachable *from* the configured hot roots (the
              per-event dispatch and wakeup machinery), used by
              hot-path-alloc.

Name resolution is deliberately conservative, tuned to fail toward silence:

  * qualified calls (`Engine::sleep(...)`) resolve by qualified-name suffix;
  * unqualified calls inside a class resolve to that class's methods when
    one matches (implicit this), else to every same-named definition;
  * member calls (`x.read(...)`, `p->push(...)`) resolve by name only when
    the name is not in the configured `ambiguous_members` list — generic
    container-ish names are dropped rather than edged to every definition;
  * multi-candidate edges transmit an analysis bit under a per-analysis
    aggregation mode (see combine()): blocking propagation uses "all" (a
    must-analysis — one blocking `read` among three cannot taint an
    unrelated caller), while the taint analyses in dataflow.py use "any"
    (a may-analysis — taint through one plausible callee is a finding).
    Each mode is declared next to the analysis it governs: `propagation`
    in blocking.toml [blocking] and taint.toml [taint].

The graph is built once per Project (see get()) and shared by all four flow
rules; build stats are exported for `vmlint --stats`.
"""

import os
import time
import tomllib
import collections
from dataclasses import dataclass, field

_CONFIG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "blocking.toml")

# Names that read like calls (`id (`) but never are, or that we refuse to
# treat as user functions.
_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "return", "goto",
    "break", "continue", "sizeof", "alignof", "alignas", "decltype",
    "noexcept", "static_assert", "new", "delete", "throw", "catch",
    "co_await", "co_return", "co_yield", "requires", "typeid", "defined",
    "asm", "operator", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "assert", "__builtin_expect",
}

_CODE_KINDS = ("comment", "disabled")


@dataclass
class CallSite:
    name: str          # callee simple name
    quals: tuple       # `::` qualifier chain before the name, may be ()
    member: bool       # preceded by `.` or `->`
    line: int          # 1-based source line of the name token
    name_index: int    # index of the name token in the file's code tokens
    args_end: int      # index one past the call's closing ')'
    cands: list = field(default_factory=list)  # resolved FunctionDefs


@dataclass
class FunctionDef:
    path: tuple        # best-effort qualified path, namespaces included
    name: str          # simple name (last path component)
    cls_components: tuple  # enclosing class chain, pre namespace-stripping
    rel: str
    line: int          # 1-based line of the name token
    sig_start: int     # code-token index of the name token
    params_start: int  # index of the '(' opening the parameter list
    body_start: int    # index of the '{' opening the body
    body_end: int      # index one past the matching '}'
    calls: list = field(default_factory=list)
    has_co_await: bool = False
    cls: str = ""      # namespace-stripped class key ("Engine::SleepAwaiter")
    blocking: bool = False
    blocking_why: str = ""
    hot: bool = False
    hot_root: str = ""  # the configured root whose closure reached this fn

    def display(self):
        return "::".join(self.path)


class _FileParser:
    """Scope-aware single-file pass producing FunctionDefs."""

    def __init__(self, rel, toks):
        self.rel = rel
        self.toks = toks
        self.fns = []
        self.namespaces = set()

    # -- bracket matching ----------------------------------------------------

    def match_paren(self, i):
        """toks[i] == '(' -> index one past the matching ')'. Tolerant."""
        depth, j, n = 0, i, len(self.toks)
        while j < n:
            x = self.toks[j].text
            if x == "(":
                depth += 1
            elif x == ")":
                depth -= 1
                if depth == 0:
                    return j + 1
            j += 1
        return n

    def match_brace(self, i):
        depth, j, n = 0, i, len(self.toks)
        while j < n:
            x = self.toks[j].text
            if x == "{":
                depth += 1
            elif x == "}":
                depth -= 1
                if depth == 0:
                    return j + 1
            j += 1
        return n

    def match_angle(self, i):
        """toks[i] == '<' -> index past the matching '>' when it plausibly
        closes a template argument list, else i + 1 (treat as less-than)."""
        depth, j, n = 1, i + 1, len(self.toks)
        while j < n and j - i < 256:
            x = self.toks[j].text
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

    def skip_directive(self, i, end):
        """From a '#' token: past the rest of its (single logical) line.
        Continuation lines of multi-line directives are 'disabled' tokens and
        never reach this parser, so a line-based skip is exact."""
        line = self.toks[i].line
        j = i + 1
        while j < end and self.toks[j].line == line:
            j += 1
        return j

    def skip_to_semi(self, i, end):
        while i < end:
            x = self.toks[i].text
            if x == ";":
                return i + 1
            if x == "{":
                i = self.match_brace(i)
                continue
            if x == "(":
                i = self.match_paren(i)
                continue
            if x == "}":
                return i
            i += 1
        return end

    # -- declarations --------------------------------------------------------

    def parse(self):
        self.scope(0, len(self.toks), (), ())

    def scope(self, i, end, ns, cls):
        """Parses a namespace/class/global region [i, end)."""
        toks = self.toks
        while i < end:
            x = toks[i].text
            if x in (";", "}", "{"):
                i += 1
                continue
            if x == "#":
                i = self.skip_directive(i, end)
                continue
            if x == "template":
                i += 1
                if i < end and toks[i].text == "<":
                    i = self.match_angle(i)
                continue
            if x in ("public", "private", "protected") \
                    and i + 1 < end and toks[i + 1].text == ":":
                i += 2
                continue
            if x == "inline" and i + 1 < end \
                    and toks[i + 1].text == "namespace":
                i += 1
                continue
            if x == "namespace":
                j = i + 1
                parts = []
                while j < end and (toks[j].kind == "id"
                                   or toks[j].text == "::"):
                    if toks[j].kind == "id":
                        parts.append(toks[j].text)
                    j += 1
                self.namespaces.update(parts)
                if j < end and toks[j].text == "{":
                    close = self.match_brace(j)
                    self.scope(j + 1, close - 1, ns + tuple(parts), cls)
                    i = close
                else:  # namespace alias or malformed
                    i = self.skip_to_semi(j, end)
                continue
            if x in ("class", "struct", "union"):
                i = self.class_like(i, end, ns, cls)
                continue
            if x == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    j = self.match_brace(j)
                i = self.skip_to_semi(j, end)
                continue
            if x in ("using", "typedef", "static_assert", "friend"):
                i = self.skip_to_semi(i, end)
                continue
            if x == "extern" and i + 1 < end and toks[i + 1].kind == "str":
                if i + 2 < end and toks[i + 2].text == "{":
                    close = self.match_brace(i + 2)
                    self.scope(i + 3, close - 1, ns, cls)
                    i = close
                else:
                    i += 2
                continue
            i = self.declaration(i, end, ns, cls)

    def class_like(self, i, end, ns, cls):
        """From a class/struct/union keyword; recurses into a definition's
        member region, skips forward declarations and elaborated uses."""
        toks = self.toks
        j = i + 1
        name = None
        while j < end and toks[j].text not in ("{", ";", ":", "(", ")", ","):
            if toks[j].text == "<":
                j = self.match_angle(j)
                continue
            if toks[j].kind == "id" and toks[j].text not in ("final",
                                                             "alignas"):
                name = toks[j].text
            j += 1
        if j < end and toks[j].text == ":":  # base-specifier list
            while j < end and toks[j].text not in ("{", ";"):
                if toks[j].text == "<":
                    j = self.match_angle(j)
                    continue
                j += 1
        if j < end and toks[j].text == "{":
            close = self.match_brace(j)
            self.scope(j + 1, close - 1, ns,
                       cls + ((name,) if name else ()))
            # Trailing declarator (`} x;`) is consumed by the caller's loop.
            return close
        if j < end and toks[j].text == ";":
            return j + 1
        return j if j > i + 1 else i + 1

    def declaration(self, i, end, ns, cls):
        """Parses one declaration starting at i; emits a FunctionDef when it
        turns out to be a function definition. Returns the resume index."""
        toks = self.toks
        j = i
        while j < end:
            t = toks[j]
            x = t.text
            if x == "#":
                j = self.skip_directive(j, end)
                continue
            if x == ";":
                return j + 1
            if x == "}":
                return j + 1
            if x == "=":
                return self.skip_to_semi(j, end)
            if x == "{":
                # Brace with no preceding signature: brace-init or an
                # operator overload body we chose not to model.
                j2 = self.match_brace(j)
                if j2 < end and toks[j2].text == ";":
                    j2 += 1
                return j2
            if x == "template":
                j += 1
                if j < end and toks[j].text == "<":
                    j = self.match_angle(j)
                continue
            if x == "<":
                j = self.match_angle(j)
                continue
            if t.kind == "id" and x not in _KEYWORDS and j + 1 < end \
                    and toks[j + 1].text == "(":
                r = self.try_function(i, j, end, ns, cls)
                if r is not None:
                    return r
                # Not a signature (array bound, macro invocation, ...):
                # resume past the parenthesized group.
                j = self.match_paren(j + 1)
                continue
            j += 1
        return end

    def try_function(self, decl_start, j, end, ns, cls):
        """Candidate `name (` at j. Returns resume index if this was a
        function definition or declaration, else None."""
        toks = self.toks
        name = toks[j].text
        k = j
        if k >= 1 and toks[k - 1].text == "~":
            name = "~" + name
            k -= 1
        path = [name]
        while k >= 2 and toks[k - 1].text == "::" and toks[k - 2].kind == "id":
            path.insert(0, toks[k - 2].text)
            k -= 2
        close = self.match_paren(j + 1)
        m = close
        while m < end:
            xm = toks[m].text
            if xm in ("const", "noexcept", "override", "final", "mutable",
                      "&", "&&", "volatile"):
                is_noexcept = xm == "noexcept"
                m += 1
                if is_noexcept and m < end and toks[m].text == "(":
                    m = self.match_paren(m)
                continue
            if xm == "throw" and m + 1 < end and toks[m + 1].text == "(":
                m = self.match_paren(m + 1)
                continue
            if xm == "->":  # trailing return type
                m += 1
                while m < end and toks[m].text not in ("{", ";", "="):
                    if toks[m].text == "<":
                        m = self.match_angle(m)
                    elif toks[m].text == "(":
                        m = self.match_paren(m)
                    else:
                        m += 1
                continue
            if xm == "requires":
                m += 1
                if m < end and toks[m].text == "(":
                    m = self.match_paren(m)
                else:
                    while m < end and toks[m].text not in ("{", ";"):
                        m += 1
                continue
            break
        if m < end and toks[m].text == ":":
            # Constructor member-init list: `name(args), name{args}, ... {`.
            m += 1
            while m < end:
                while m < end and (toks[m].kind == "id"
                                   or toks[m].text == "::"):
                    m += 1
                    if m < end and toks[m].text == "<":
                        m = self.match_angle(m)
                if m < end and toks[m].text == "(":
                    m = self.match_paren(m)
                elif m < end and toks[m].text == "{":
                    # Either a brace initializer or the body; decide by what
                    # follows the matching close: ',' continues the list, a
                    # second '{' means this one was the last initializer and
                    # the body follows, anything else means this was the body.
                    b = self.match_brace(m)
                    if b < end and toks[b].text == ",":
                        m = b
                    elif b < end and toks[b].text == "{":
                        m = b
                        break
                    else:
                        break
                else:
                    break
                if m < end and toks[m].text == ",":
                    m += 1
                    continue
                break
        if m < end and toks[m].text == "{":
            body_close = self.match_brace(m)
            fn = FunctionDef(
                path=ns + cls + tuple(path),
                name=name,
                cls_components=cls + tuple(path[:-1]),
                rel=self.rel,
                line=toks[j].line,
                sig_start=j,
                params_start=j + 1,
                body_start=m,
                body_end=body_close,
            )
            self.fns.append(fn)
            self.collect_body(fn, m + 1, body_close - 1, ns)
            return body_close
        if m < end and toks[m].text == ";":
            return m + 1  # declaration only
        if m < end and toks[m].text == "=":
            return self.skip_to_semi(m, end)  # = default / = delete / = 0
        return None

    def collect_body(self, fn, i, end, ns):
        """Scans a function body for co_await, call sites, and local struct
        definitions (whose methods become separate FunctionDefs and are
        excluded from the enclosing function's own call list)."""
        toks = self.toks
        while i < end:
            t = toks[i]
            x = t.text
            if x == "#":
                i = self.skip_directive(i, end)
                continue
            if x in ("class", "struct"):
                i = self.class_like(i, end, ns, fn.cls_components)
                continue
            if t.kind == "id" and x == "co_await":
                fn.has_co_await = True
                i += 1
                continue
            if t.kind == "id" and x not in _KEYWORDS and i + 1 < end:
                # `name(` directly, or `name<T...>(` with explicit template
                # arguments (make_shared<WaitRecord>(...) and friends).
                paren = -1
                if toks[i + 1].text == "(":
                    paren = i + 1
                elif toks[i + 1].text == "<":
                    after = self.match_angle(i + 1)
                    if after > i + 2 and after < end \
                            and toks[after].text == "(":
                        paren = after
                if paren >= 0:
                    quals = []
                    k = i
                    while k >= 2 and toks[k - 1].text == "::" \
                            and toks[k - 2].kind == "id":
                        quals.insert(0, toks[k - 2].text)
                        k -= 2
                    member = k >= 1 and toks[k - 1].text in (".", "->")
                    fn.calls.append(CallSite(
                        name=x, quals=tuple(quals), member=member,
                        line=t.line, name_index=i,
                        args_end=self.match_paren(paren)))
            i += 1


def _load_config(path=_CONFIG_PATH):
    with open(path, "rb") as f:
        return tomllib.load(f)


def combine(flags, mode):
    """Aggregates a per-candidate bit across a multi-candidate call edge.

    mode "all": must-semantics — the edge transmits only when every
    candidate has the property (sound for blocking: no false edges).
    mode "any": may-semantics — one candidate suffices (sound for taint:
    no missed flows). `flags` must be a non-empty iterable of bools.
    """
    flags = list(flags)
    if not flags:
        return False
    if mode == "any":
        return any(flags)
    if mode == "all":
        return all(flags)
    raise ValueError(f"unknown propagation mode {mode!r} (want any|all)")


class CallGraph:
    """The parsed project: FunctionDefs, resolved call edges, blocking and
    hot transitive sets, and build statistics."""

    def __init__(self, project, config=None):
        t0 = time.perf_counter()
        self.config = config if config is not None else _load_config()
        self.functions = []
        self._code_toks = {}   # rel -> code-token list
        self._fns_by_rel = collections.defaultdict(list)
        namespaces = set()
        for sf in project.sources():
            toks = [t for t in sf.tokens if t.kind not in _CODE_KINDS]
            self._code_toks[sf.rel] = toks
            parser = _FileParser(sf.rel, toks)
            parser.parse()
            namespaces |= parser.namespaces
            self.functions.extend(parser.fns)

        self.functions.sort(key=lambda f: (f.rel, f.line, f.display()))
        for fn in self.functions:
            fn.cls = "::".join(c for c in fn.cls_components
                               if c not in namespaces)
        self._by_name = collections.defaultdict(list)
        for fn in self.functions:
            self._by_name[fn.name].append(fn)
            self._fns_by_rel[fn.rel].append(fn)

        self._ambiguous = set(
            self.config.get("blocking", {}).get("ambiguous_members", []))
        self._blocking_mode = self.config.get("blocking", {}).get(
            "propagation", "all")
        n_sites = 0
        n_resolved = 0
        for fn in self.functions:
            for site in fn.calls:
                site.cands = self._candidates(site, fn)
                n_sites += 1
                n_resolved += bool(site.cands)

        self._compute_blocking()
        self._compute_hot()
        self.stats = {
            "files": len(self._code_toks),
            "functions": len(self.functions),
            "call_sites": n_sites,
            "resolved_call_sites": n_resolved,
            "blocking_set": sum(f.blocking for f in self.functions),
            "hot_set": sum(f.hot for f in self.functions),
            "build_seconds": round(time.perf_counter() - t0, 4),
        }

    # -- queries -------------------------------------------------------------

    def code_tokens(self, rel):
        return self._code_toks.get(rel, [])

    def functions_in(self, rel):
        return self._fns_by_rel.get(rel, [])

    def by_name(self, name):
        return self._by_name.get(name, [])

    def is_blocking_call(self, site):
        """True when this call site conservatively must reach a suspension
        point: it resolved, and the candidates are blocking under the
        configured aggregation mode (blocking.toml `propagation`, default
        "all" — see combine())."""
        return combine((c.blocking for c in site.cands), self._blocking_mode)

    # -- resolution ----------------------------------------------------------

    def _candidates(self, site, caller):
        cands = self._by_name.get(site.name)
        if not cands:
            return []
        if site.quals:
            suffix = site.quals + (site.name,)
            return [f for f in cands if f.path[-len(suffix):] == suffix]
        if site.member:
            if site.name in self._ambiguous:
                return []
            return list(cands)
        if caller.cls:
            same = [f for f in cands if f.cls == caller.cls]
            if same:
                return same
        return list(cands)

    # -- transitive sets -----------------------------------------------------

    def _compute_blocking(self):
        seeds = [tuple(s.split("::"))
                 for s in self.config.get("blocking", {}).get("seeds", [])]
        for fn in self.functions:
            if fn.has_co_await:
                fn.blocking = True
                fn.blocking_why = "body contains co_await"
            elif any(fn.path[-len(s):] == s for s in seeds):
                fn.blocking = True
                fn.blocking_why = "configured blocking seed"
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn.blocking:
                    continue
                for site in fn.calls:
                    if combine((c.blocking for c in site.cands),
                               self._blocking_mode):
                        fn.blocking = True
                        fn.blocking_why = (
                            f"calls blocking {site.cands[0].display()} "
                            f"(line {site.line})")
                        changed = True
                        break

    def _compute_hot(self):
        roots = [tuple(s.split("::"))
                 for s in self.config.get("hot", {}).get("roots", [])]
        queue = []
        for fn in self.functions:
            for r in roots:
                if fn.path[-len(r):] == r:
                    fn.hot = True
                    fn.hot_root = "::".join(r)
                    queue.append(fn)
                    break
        while queue:
            fn = queue.pop(0)
            for site in fn.calls:
                for c in site.cands:
                    if not c.hot:
                        c.hot = True
                        c.hot_root = fn.hot_root
                        queue.append(c)


def creates_wait_record(toks, fn):
    """True when fn's signature+body creates a WaitRecord: a
    make_wait_record(...) call or a make_shared with WaitRecord in its
    template arguments."""
    k = fn.params_start
    while k < fn.body_end:
        t = toks[k]
        if t.kind == "id":
            if t.text == "make_wait_record" \
                    and k + 1 < fn.body_end and toks[k + 1].text == "(":
                return True
            if t.text == "make_shared" and any(
                    toks[m].text == "WaitRecord"
                    for m in range(k + 1, min(k + 9, fn.body_end))):
                return True
        k += 1
    return False


def mentions_wait_record(toks, fn):
    """True when WaitRecord appears anywhere in fn's signature or body."""
    return any(toks[k].kind == "id" and toks[k].text == "WaitRecord"
               for k in range(fn.params_start, fn.body_end))


def get(project, config=None):
    """The per-Project cached CallGraph; built on first use, shared by every
    graph rule in the run (and surfaced by `vmlint --stats`)."""
    graph = getattr(project, "_vmlint_callgraph", None)
    if graph is None:
        graph = CallGraph(project, config=config)
        project._vmlint_callgraph = graph
    return graph
