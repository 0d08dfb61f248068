"""Rule engine: corpus loading, reachability, suppression, baseline matching."""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import (
    BAD_SUPPRESSION_RULE,
    BaselineKey,
    Finding,
    apply_baseline,
)
from .modules import ModuleInfo


class Rule:
    """Base class for one rule family.

    Subclasses set ``ids`` (every finding rule-id they may emit) and implement
    :meth:`check`, yielding :class:`Finding` objects for one module.
    ``example`` is a short offending snippet shown by ``--explain`` (it
    mirrors the committed fixtures under ``tests/analysis/fixtures/``).
    """

    ids: Tuple[str, ...] = ()
    name: str = "rule"
    example: str = ""

    def check(self, info: ModuleInfo, context: "AnalysisContext") -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for mypy


class AnalysisContext:
    """The analyzed corpus: every module, keyed by dotted name, plus caches."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: List[ModuleInfo] = list(modules)
        self.by_name: Dict[str, ModuleInfo] = {m.module: m for m in self.modules}
        self.by_path: Dict[str, ModuleInfo] = {m.path: m for m in self.modules}
        self._reach_cache: Dict[Tuple[str, ...], Set[str]] = {}

    def reachable_from(self, seeds: Iterable[str]) -> Set[str]:
        """Corpus modules reachable from ``seeds`` via explicit imports.

        A seed names either a module or a package prefix; ``repro.mis`` seeds
        every ``repro.mis.*`` module in the corpus.  Edges are the explicit
        import statements of each module (see ModuleInfo.imported_modules),
        restricted to modules present in the corpus.
        """
        key = tuple(sorted(seeds))
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        frontier: List[str] = []
        for seed in key:
            for name in self.by_name:
                if name == seed or name.startswith(seed + "."):
                    frontier.append(name)
        seen: Set[str] = set(frontier)
        while frontier:
            current = frontier.pop()
            info = self.by_name.get(current)
            if info is None:
                continue
            for dep in self._resolve_edges(info):
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        self._reach_cache[key] = seen
        return seen

    def _resolve_edges(self, info: ModuleInfo) -> Set[str]:
        """Corpus modules ``info`` explicitly imports.

        ``from pkg import name`` resolves to ``pkg.name`` when that is a
        corpus module, else to ``pkg`` — so ``from . import primitives``
        depends on the submodule, not on the package ``__init__`` (whose
        imports would drag unrelated siblings into reachability).
        """
        deps: Set[str] = set()
        for base, names in info.import_edges():
            if not names:
                if base in self.by_name:
                    deps.add(base)
                continue
            matched = False
            for name in names:
                full = f"{base}.{name}" if base else name
                if full in self.by_name:
                    deps.add(full)
                    matched = True
            if not matched and base in self.by_name:
                deps.add(base)
        return deps


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run over a corpus."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    modules_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "modules_checked": self.modules_checked,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
        }


def all_rules() -> List[Rule]:
    """The six shipped rule families, in deterministic order."""
    from .bytemeter import ByteMeterRule
    from .determinism import DeterminismRule
    from .dtypes import DtypeRule
    from .locks import LockDisciplineRule
    from .purity import PurityRule
    from .races import RaceRule

    return [
        DeterminismRule(),
        LockDisciplineRule(),
        ByteMeterRule(),
        PurityRule(),
        RaceRule(),
        DtypeRule(),
    ]


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path!r}")
    return out


def load_corpus(paths: Sequence[str]) -> AnalysisContext:
    return AnalysisContext([ModuleInfo.from_path(p) for p in collect_files(paths)])


def _suppression_findings(info: ModuleInfo) -> Iterator[Finding]:
    for sup in info.suppressions:
        if not sup.justified:
            yield Finding(
                path=info.path,
                line=sup.line,
                rule=BAD_SUPPRESSION_RULE,
                message=(
                    "suppression for "
                    + ", ".join(sup.rules)
                    + " has no justification (append `-- <why this is safe>`)"
                ),
            )


def run_analysis(
    paths: Optional[Sequence[str]] = None,
    context: Optional[AnalysisContext] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional["Counter[BaselineKey]"] = None,
) -> AnalysisReport:
    """Run ``rules`` over the corpus and split findings by suppression/baseline.

    Findings are sorted before suppression/baseline matching, so the report
    does not depend on the order the modules were checked in.
    """
    if context is None:
        if paths is None:
            raise ValueError("run_analysis needs paths or a prebuilt context")
        context = load_corpus(paths)

    raw: List[Finding] = []
    active: Sequence[Rule] = all_rules() if rules is None else rules
    for info in context.modules:
        raw.extend(_suppression_findings(info))
        for rule in active:
            raw.extend(rule.check(info, context))
    raw.sort()

    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        info = context.by_path.get(finding.path)
        rules_here = info.suppressed_rules_at(finding.line) if info else ()
        if finding.rule != BAD_SUPPRESSION_RULE and finding.rule in rules_here:
            suppressed.append(finding)
        else:
            kept.append(finding)

    fresh, matched = apply_baseline(kept, baseline)
    return AnalysisReport(
        findings=fresh,
        suppressed=suppressed,
        baselined=matched,
        modules_checked=len(context.modules),
    )
