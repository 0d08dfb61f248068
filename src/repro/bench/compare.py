"""Bench regression gate: diff two ``BENCH_*.json`` experiment records.

``python -m repro.bench compare baseline.json candidate.json`` is the guard CI
(and a human chasing a perf trajectory) runs over the persisted
:class:`~repro.bench.experiment.ExperimentResult` records. It gates one
thing: **every deterministic count must be equal** (exit code 1 on any
drift). The counts are the paper's portability guarantee, identical across
backends and pool widths, so any difference means an algorithmic change. A
count key missing from one record entirely is reported as "missing from
baseline/candidate", never as a value difference against ``None``.

Records whose run context differs (``backend``, ``parts`` or ``jobs``) are
still comparable — the counts must match regardless — but the mismatch is
called out explicitly in the rendered output so a wrong-pair comparison never
gates silently. Wall-clock time is not compared: the records CI pairs differ
in pool width or backend, so their times differ by design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from .experiment import ExperimentResult

__all__ = ["ComparisonReport", "compare_results", "compare_files"]


@dataclass
class ComparisonReport:
    """Outcome of diffing a candidate experiment record against a baseline."""

    baseline: ExperimentResult
    candidate: ExperimentResult
    #: Human-readable description of every deterministic-count difference.
    count_drift: List[str] = field(default_factory=list)
    #: Run-context fields (backend, parts, jobs) that differ between the records.
    #: Informational: counts must match regardless, but the mismatch is
    #: rendered so a wrong-pair comparison never gates silently.
    context_mismatch: List[str] = field(default_factory=list)

    @property
    def counts_identical(self) -> bool:
        return not self.count_drift

    def render(self) -> str:
        """Format the report as the CLI's output text."""

        def label(result: ExperimentResult) -> str:
            parts = f", {result.parts} parts" if result.parts else ""
            return f"{result.experiment} ({result.backend}{parts})"

        lines = [f"bench compare: {label(self.baseline)} vs {label(self.candidate)}"]
        for entry in self.context_mismatch:
            lines.append(f"note: {entry}")
        if self.counts_identical:
            lines.append(
                f"deterministic counts: identical ({len(self.baseline.counts)} keys)"
            )
        else:
            lines.append(
                f"deterministic counts: DRIFT ({len(self.count_drift)} difference(s))"
            )
            lines.extend(f"  {entry}" for entry in self.count_drift[:20])
            if len(self.count_drift) > 20:
                lines.append(f"  ... and {len(self.count_drift) - 20} more")
        return "\n".join(lines)


def compare_results(
    baseline: ExperimentResult, candidate: ExperimentResult
) -> ComparisonReport:
    """Diff ``candidate`` against ``baseline`` and return the structured report."""
    drift: List[str] = []
    context: List[str] = []
    if baseline.experiment != candidate.experiment:
        drift.append(
            f"experiment: {baseline.experiment!r} != {candidate.experiment!r}"
        )
    # Differing run context is legitimate (that is what the cross-backend
    # and serial-vs-pooled gates compare) but must be visible, not silent.
    if baseline.backend != candidate.backend:
        context.append(f"backends differ: {baseline.backend!r} vs {candidate.backend!r}")
    if baseline.parts != candidate.parts:
        context.append(f"partition counts differ: {baseline.parts!r} vs {candidate.parts!r}")
    if baseline.jobs != candidate.jobs:
        context.append(f"pool widths differ: {baseline.jobs!r} vs {candidate.jobs!r}")
    for key in sorted(set(baseline.counts) | set(candidate.counts)):
        a, b = baseline.counts.get(key), candidate.counts.get(key)
        # A key absent from one record is structural drift (the experiments
        # measured different things), not a value difference; rendering it as
        # "5 != None" made it indistinguishable from a recorded null — and it
        # must be checked before the equality short-circuit, or a missing key
        # would slip past a recorded null on the other side.
        if key not in baseline.counts:
            drift.append(f"counts[{key}]: missing from baseline (candidate has {b!r})")
        elif key not in candidate.counts:
            drift.append(f"counts[{key}]: missing from candidate (baseline has {a!r})")
        elif a != b:
            drift.append(f"counts[{key}]: {a!r} != {b!r}")
    return ComparisonReport(
        baseline=baseline,
        candidate=candidate,
        count_drift=drift,
        context_mismatch=context,
    )


def _load_record(path: "Path | str") -> ExperimentResult:
    """Load one record, translating the failure modes a CI artifact actually
    hits (missing file, truncated JSON, non-record JSON) into a clean error."""
    try:
        return ExperimentResult.from_json(Path(path).read_text())
    except OSError as exc:
        raise SystemExit(f"bench compare: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"bench compare: {path} is not valid JSON: {exc}")
    except (KeyError, TypeError) as exc:
        raise SystemExit(
            f"bench compare: {path} is not an ExperimentResult record "
            f"(missing field {exc})"
        )


def compare_files(baseline_path: "Path | str", candidate_path: "Path | str") -> int:
    """CLI entry: load two ``BENCH_*.json`` records, print the diff, return the
    exit code (0 when the counts are identical, 1 on any drift). An unreadable
    or malformed record exits with the loader's message (exit code 1 via
    ``SystemExit``) instead of a traceback."""
    report = compare_results(_load_record(baseline_path), _load_record(candidate_path))
    print(report.render())
    return 0 if report.counts_identical else 1
