"""repro.analysis — AST-based contract checker for the repro stack.

The runtime suites pin the stack's load-bearing guarantees (bit-identical
deterministic counts, honest byte accounting, thread-safe service state) by
*executing* specific matrix cells.  This package enforces the same contracts
*statically*, over every code path, with four rule families:

* determinism  — no wall-clock/unseeded-randomness/set-iteration/`id()`
  ordering in modules reachable from deterministic-count producers;
* lock-guard   — attributes annotated ``# guarded-by: <lock>`` are only
  touched under ``with <base>.<lock>:`` (or in a ``# holds: <lock>`` method);
* bytes-*      — raw sockets and pickle stay inside ``repro.parallel.transport``
  so the byte meter can't be bypassed;
* purity       — callables crossing the backend seam are module-level
  (picklable), and code that picks a backend resolves it through the
  registry instead of hard-wiring one.

Run it with ``python -m repro.analysis [--baseline FILE] [--json] [paths...]``.
See ``src/repro/analysis/README.md`` for the annotation and suppression
grammar.
"""

from __future__ import annotations

from .engine import AnalysisReport, all_rules, run_analysis
from .findings import Finding, load_baseline, write_baseline
from .modules import ModuleInfo

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleInfo",
    "all_rules",
    "load_baseline",
    "run_analysis",
    "write_baseline",
]
