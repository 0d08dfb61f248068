"""Engine behaviour: module naming, suppressions, baselines, reachability."""

import pytest

from repro.analysis.determinism import DeterminismRule
from repro.analysis.engine import AnalysisContext, run_analysis
from repro.analysis.findings import (
    Finding,
    apply_baseline,
    load_baseline,
    parse_suppressions,
    write_baseline,
)
from repro.analysis.locks import LockDisciplineRule
from repro.analysis.modules import ModuleInfo, module_name_for_path


# ------------------------------------------------------------- module naming
@pytest.mark.parametrize(
    "path, expected",
    [
        ("src/repro/mis/kk.py", "repro.mis.kk"),
        ("src/repro/parallel/__init__.py", "repro.parallel"),
        ("/abs/checkout/src/repro/service/core.py", "repro.service.core"),
        ("repro/analysis/engine.py", "repro.analysis.engine"),
        ("tools/script.py", "tools.script"),
    ],
)
def test_module_name_for_path(path, expected):
    assert module_name_for_path(path) == expected


# --------------------------------------------------------------- suppressions
def test_suppression_parsing_justified_and_not():
    source = (
        "x = 1  # analysis-ok: lock-guard -- at-fork child is single-threaded\n"
        "y = 2  # analysis-ok: det-set-iter, det-id-order -- proven order-free\n"
        "z = 3  # analysis-ok: lock-guard\n"
    )
    sups = parse_suppressions(source)
    assert [s.line for s in sups] == [1, 2, 3]
    assert sups[0].justified and sups[0].rules == ("lock-guard",)
    assert sups[1].rules == ("det-set-iter", "det-id-order")
    assert not sups[2].justified


def test_suppression_in_docstring_is_ignored():
    source = '"""Docs show the format: # analysis-ok: lock-guard -- why."""\nx = 1\n'
    assert parse_suppressions(source) == []


LOCKED_BAD = """\
import threading


class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def bump(self):
        self.count += 1{suffix}
"""


def _context(suffix=""):
    info = ModuleInfo.from_source(
        LOCKED_BAD.format(suffix=suffix), path="fix/store.py", module="fix.store"
    )
    return AnalysisContext([info])


def test_justified_suppression_removes_finding():
    report = run_analysis(
        context=_context("  # analysis-ok: lock-guard -- benign in this fixture"),
        rules=[LockDisciplineRule()],
    )
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["lock-guard"]


def test_unjustified_suppression_keeps_finding_and_reports_it():
    report = run_analysis(
        context=_context("  # analysis-ok: lock-guard"),
        rules=[LockDisciplineRule()],
    )
    assert sorted(f.rule for f in report.findings) == ["bad-suppression", "lock-guard"]


def test_suppression_for_other_rule_does_not_apply():
    report = run_analysis(
        context=_context("  # analysis-ok: det-set-iter -- wrong rule id"),
        rules=[LockDisciplineRule()],
    )
    assert [f.rule for f in report.findings] == ["lock-guard"]


# ------------------------------------------------------------------ baselines
def test_baseline_round_trip_and_line_independence(tmp_path):
    finding = Finding(path="a.py", line=10, rule="lock-guard", message="msg")
    baseline_file = tmp_path / "baseline.json"
    write_baseline(str(baseline_file), [finding])
    keys = load_baseline(str(baseline_file))

    moved = Finding(path="a.py", line=99, rule="lock-guard", message="msg")
    other = Finding(path="a.py", line=10, rule="lock-guard", message="different")
    fresh, matched = apply_baseline([moved, other], keys)
    assert matched == [moved]  # same identity, line ignored
    assert fresh == [other]


def test_baseline_is_a_multiset():
    finding = Finding(path="a.py", line=1, rule="r", message="m")
    twice = Finding(path="a.py", line=2, rule="r", message="m")
    fresh, matched = apply_baseline([finding, twice], {finding.baseline_key: 1})
    assert len(matched) == 1 and len(fresh) == 1


def test_baseline_via_run_analysis():
    context = _context()
    first = run_analysis(context=context, rules=[LockDisciplineRule()])
    assert len(first.findings) == 1
    keys = {f.baseline_key: 1 for f in first.findings}
    second = run_analysis(context=_context(), rules=[LockDisciplineRule()], baseline=keys)
    assert second.findings == [] and len(second.baselined) == 1


def test_load_baseline_rejects_unknown_version(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99, "findings": []}')
    with pytest.raises(ValueError):
        load_baseline(str(bad))


# --------------------------------------------------------------- reachability
def _mini_corpus(partitioned_src):
    return [
        ModuleInfo.from_source(
            "from .transport import connect\nfrom . import partitioned\n",
            path="src/repro/parallel/__init__.py",
            module="repro.parallel",
        ),
        ModuleInfo.from_source(
            partitioned_src,
            path="src/repro/parallel/partitioned.py",
            module="repro.parallel.partitioned",
        ),
        ModuleInfo.from_source(
            "", path="src/repro/parallel/primitives.py",
            module="repro.parallel.primitives",
        ),
        ModuleInfo.from_source(
            "import time\n\n\ndef deadline():\n    return time.monotonic()\n",
            path="src/repro/parallel/transport.py",
            module="repro.parallel.transport",
        ),
    ]


def test_sibling_import_does_not_drag_in_package_init_deps():
    # `from . import primitives` depends on the submodule, NOT on the package
    # __init__ — transport's legitimate deadline timing stays out of the
    # determinism scope.
    context = AnalysisContext(_mini_corpus("from . import primitives as _ref\n"))
    scope = context.reachable_from(["repro.parallel.partitioned"])
    assert "repro.parallel.primitives" in scope
    assert "repro.parallel.transport" not in scope
    report = run_analysis(context=context, rules=[DeterminismRule()])
    assert report.findings == []


def test_direct_import_of_transport_is_in_scope():
    context = AnalysisContext(_mini_corpus("from .transport import connect\n"))
    scope = context.reachable_from(["repro.parallel.partitioned"])
    assert "repro.parallel.transport" in scope
    report = run_analysis(context=context, rules=[DeterminismRule()])
    assert [f.rule for f in report.findings] == ["det-wallclock"]


# -------------------------------------------------------------------- by_path
def test_context_indexes_modules_by_path():
    context = AnalysisContext(_mini_corpus(""))
    info = context.by_path["src/repro/parallel/transport.py"]
    assert info.module == "repro.parallel.transport"
    assert set(context.by_path) == {m.path for m in context.modules}
