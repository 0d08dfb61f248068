"""The analyzer must hold its own tree to the contracts it enforces."""

from repro.analysis import run_analysis
from repro.analysis.engine import load_corpus

from .helpers import REPO_SRC


def test_src_repro_has_zero_unsuppressed_findings():
    report = run_analysis(paths=[str(REPO_SRC)])
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    assert report.modules_checked > 90


def test_every_in_tree_suppression_is_justified():
    context = load_corpus([str(REPO_SRC)])
    for info in context.modules:
        for sup in info.suppressions:
            assert sup.justified, f"{info.path}:{sup.line} lacks a justification"


def test_the_tree_actually_exercises_the_lock_rule():
    # Guard against the annotations being silently dropped: the modules that
    # share state across threads must still declare what guards it.
    context = load_corpus([str(REPO_SRC)])
    from repro.analysis.locks import parse_annotations

    annotated = {
        info.module
        for info in context.modules
        if parse_annotations(info).attr_locks or parse_annotations(info).global_locks
    }
    assert {
        "repro.service.core",
        "repro.parallel.distributed",
    } <= annotated
