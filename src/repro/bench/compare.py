"""Bench regression gate: diff two ``BENCH_*.json`` experiment records.

``python -m repro.bench compare baseline.json candidate.json`` is the guard CI
(and a human chasing a perf trajectory) runs over the persisted
:class:`~repro.bench.experiment.ExperimentResult` records:

* **deterministic-count drift is a failure** (exit code 1) — the counts are
  the paper's portability guarantee, identical across backends, pool widths
  and partition counts, so any difference means an algorithmic change;
* **shipped-bytes counts are gated directionally across partition counts**
  — keys ending in ``_bytes`` measure communication volume, not algorithmic
  output, so when the records differ in partition count a *smaller*
  candidate value is reported as an improvement while a *larger* one still
  fails like any other drift. Between records of the *same* partition count
  the counts must be bit-identical — a smaller value there is
  under-accounting and fails. A count key missing from one record entirely
  is reported as "missing from baseline/candidate", never as a value
  difference against ``None``;
* **wall-clock regression is a warning** — ``elapsed_seconds`` of a small CI
  run is noisy, so a candidate slower than ``1 + tolerance`` times the
  baseline (default 25%) is reported loudly but does not fail the gate
  (``--strict-elapsed`` promotes it to a failure for curated trajectories).

Records whose run context differs (``backend``, ``parts`` or ``jobs``) are
still comparable — the counts must match regardless — but the mismatch is
called out explicitly in the rendered output so a wrong-pair comparison never
gates silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .experiment import ExperimentResult

__all__ = ["ComparisonReport", "compare_results", "compare_files"]

#: Default allowed wall-clock regression before a warning (25%).
DEFAULT_ELAPSED_TOLERANCE = 0.25


@dataclass
class ComparisonReport:
    """Outcome of diffing a candidate experiment record against a baseline."""

    baseline: ExperimentResult
    candidate: ExperimentResult
    #: Human-readable description of every deterministic-count difference.
    count_drift: List[str] = field(default_factory=list)
    #: ``_bytes`` counts where the candidate ships *less* than the baseline
    #: (reported, never a failure — shrinking communication is the goal).
    bytes_improved: List[str] = field(default_factory=list)
    #: Run-context fields (backend, parts, jobs) that differ between the records.
    #: Informational: counts must match regardless, but the mismatch is
    #: rendered so a wrong-pair comparison never gates silently.
    context_mismatch: List[str] = field(default_factory=list)
    #: ``candidate.elapsed_seconds / baseline.elapsed_seconds`` (None when the
    #: baseline recorded a non-positive duration).
    elapsed_ratio: Optional[float] = None
    #: Allowed slowdown fraction before the regression warning fires.
    elapsed_tolerance: float = DEFAULT_ELAPSED_TOLERANCE

    @property
    def counts_identical(self) -> bool:
        return not self.count_drift

    @property
    def elapsed_regressed(self) -> bool:
        return (
            self.elapsed_ratio is not None
            and self.elapsed_ratio > 1.0 + self.elapsed_tolerance
        )

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
        if self.bytes_improved:
            lines.append(
                f"shipped bytes: improved on {len(self.bytes_improved)} count(s)"
            )
            lines.extend(f"  {entry}" for entry in self.bytes_improved[:20])
            if len(self.bytes_improved) > 20:
                lines.append(f"  ... and {len(self.bytes_improved) - 20} more")
        base_s = self.baseline.elapsed_seconds
        cand_s = self.candidate.elapsed_seconds
        if self.elapsed_ratio is None:
            lines.append(f"wall-clock: {base_s:.3f}s -> {cand_s:.3f}s (ratio n/a)")
        else:
            verdict = (
                f"WARNING: >{self.elapsed_tolerance:.0%} regression"
                if self.elapsed_regressed
                else "ok"
            )
            lines.append(
                f"wall-clock: {base_s:.3f}s -> {cand_s:.3f}s "
                f"({self.elapsed_ratio:.2f}x; tolerance {1 + self.elapsed_tolerance:.2f}x; "
                f"{verdict})"
            )
        return "\n".join(lines)


def _is_bytes_key(key: str) -> bool:
    """Whether a counts key measures shipped bytes (gated directionally)."""
    return key.rsplit("/", 1)[-1].endswith("_bytes")


def compare_results(
    baseline: ExperimentResult,
    candidate: ExperimentResult,
    elapsed_tolerance: float = DEFAULT_ELAPSED_TOLERANCE,
) -> ComparisonReport:
    """Diff ``candidate`` against ``baseline`` and return the structured report."""
    drift: List[str] = []
    improved: List[str] = []
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
    # The directional bytes exemption applies only across different part
    # counts, where shipping less is an improvement. Two records of the same
    # part count must agree on every byte count — there a smaller value is
    # under-accounting, i.e. ordinary drift.
    parts_differ = baseline.parts != candidate.parts
    for key in sorted(set(baseline.counts) | set(candidate.counts)):
        a, b = baseline.counts.get(key), candidate.counts.get(key)
        # A key absent from one record is structural drift (the experiments
        # measured different things), not a value difference; rendering it as
        # "5 != None" made it indistinguishable from a recorded null — and it
        # must be checked before the equality short-circuit, or a missing key
        # would slip past a recorded null on the other side.
        if key not in baseline.counts:
            drift.append(f"counts[{key}]: missing from baseline (candidate has {b!r})")
            continue
        if key not in candidate.counts:
            drift.append(f"counts[{key}]: missing from candidate (baseline has {a!r})")
            continue
        if a == b:
            continue
        if (
            parts_differ
            and _is_bytes_key(key)
            and isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and b < a
        ):
            # Shipping less than the baseline is an improvement, not drift.
            # (More is still a failure.)
            improved.append(f"counts[{key}]: {a!r} -> {b!r}")
            continue
        drift.append(f"counts[{key}]: {a!r} != {b!r}")
    ratio = (
        candidate.elapsed_seconds / baseline.elapsed_seconds
        if baseline.elapsed_seconds and baseline.elapsed_seconds > 0
        else None
    )
    return ComparisonReport(
        baseline=baseline,
        candidate=candidate,
        count_drift=drift,
        bytes_improved=improved,
        context_mismatch=context,
        elapsed_ratio=ratio,
        elapsed_tolerance=elapsed_tolerance,
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


def compare_files(
    baseline_path: "Path | str",
    candidate_path: "Path | str",
    elapsed_tolerance: float = DEFAULT_ELAPSED_TOLERANCE,
    strict_elapsed: bool = False,
) -> int:
    """CLI entry: load two ``BENCH_*.json`` records, print the diff, return the
    exit code (0 ok / warn, 1 on count drift — or on elapsed regression when
    ``strict_elapsed``). An unreadable or malformed record exits with the
    loader's message (exit code 1 via ``SystemExit``) instead of a traceback."""
    baseline = _load_record(baseline_path)
    candidate = _load_record(candidate_path)
    report = compare_results(baseline, candidate, elapsed_tolerance=elapsed_tolerance)
    print(report.render())
    if not report.counts_identical:
        return 1
    if strict_elapsed and report.elapsed_regressed:
        return 1
    return 0
