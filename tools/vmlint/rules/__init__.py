"""vmlint rule registry.

Adding a rule: create rules/<name>.py defining a class with `name`,
`description`, optional `prepare(project)`, and `visit(file, tokens)`;
then list its constructor here. Tests live in tests/tools/ (one violating
and one clean fixture), and CMake registers `vmlint_<name>` automatically
from vmlint.py --list-rules.
"""

from rules.determinism import DeterminismRule
from rules.coro_capture import CoroCaptureRule
from rules.layer_dag import LayerDagRule
from rules.status_discipline import StatusDisciplineRule
from rules.header_hygiene import HeaderHygieneRule
from rules.lock_across_await import LockAcrossAwaitRule
from rules.unguarded_waiter import UnguardedWaiterRule
from rules.hot_path_alloc import HotPathAllocRule
from rules.span_coverage import SpanCoverageRule
from rules.determinism_taint import DeterminismTaintRule
from rules.rng_flow import RngFlowRule
from rules.env_discipline import EnvDisciplineRule
from rules.file_io_discipline import FileIoDisciplineRule

ALL_RULES = (
    DeterminismRule,
    CoroCaptureRule,
    LayerDagRule,
    StatusDisciplineRule,
    HeaderHygieneRule,
    LockAcrossAwaitRule,
    UnguardedWaiterRule,
    HotPathAllocRule,
    SpanCoverageRule,
    DeterminismTaintRule,
    RngFlowRule,
    EnvDisciplineRule,
    FileIoDisciplineRule,
)


def make_rules(names=None):
    """Instantiates the named rules (all by default). Unknown names raise."""
    by_name = {cls.name: cls for cls in ALL_RULES}
    if names is None:
        return [cls() for cls in ALL_RULES]
    rules = []
    for name in names:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise ValueError(f"unknown rule '{name}' (known: {known})")
        rules.append(by_name[name]())
    return rules
