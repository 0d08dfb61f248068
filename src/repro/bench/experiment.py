"""Declarative Experiment framework: plan / map / reduce for every paper experiment.

The paper's evaluation is twelve sweeps of the same shape — "for every matrix (or
grid, or aggregation scheme), run some kernels and record a row" — and its headline
claim is that one algorithm expressed against portable primitives runs on every
execution space. This module applies the same split to the benchmark layer itself:
each experiment is expressed **declaratively** as

* a *plan* stage: ``plan(config) -> units`` producing the picklable work units
  (matrix names, grid specs, scheme names);
* a *map* stage: a **module-level, picklable** ``task(unit, config) -> row``
  function that :meth:`Experiment.run` maps over the units itself, in order
  in the caller or, with ``jobs >= 2``, over a process pool, without the
  experiment knowing;
* a *reduce* stage: a ``render`` function formatting the collected rows as the
  paper-style table.

:class:`Experiment.run` returns a structured :class:`ExperimentResult` (JSON
round-trippable, persisted as ``benchmarks/results/BENCH_<exp>[_p<k>]_<backend>.json``)
whose ``counts`` dictionary holds the experiment's *deterministic* measurables
(iteration counts, set sizes, modelled times). ``BenchConfig.backend`` names
the backend a parts-aware task runs its partitioned calls on; a flat run opens
no session and takes only numpy. The paper's portability claim, identical
counts on every backend, is checked by :mod:`~repro.bench.compare` on two
records of one partitioned run, one per backend.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..parallel.backends import _check_count, get_backend
from .config import BenchConfig

__all__ = [
    "Experiment",
    "ExperimentResult",
    "default_results_dir",
    "experiment_names",
    "matrix_plan",
    "get_experiment",
    "register_experiment",
    "run_experiment",
]


def default_results_dir() -> Path:
    """Where ``--json`` results land (``benchmarks/results/`` unless overridden)."""
    return Path(os.environ.get("REPRO_BENCH_RESULTS", "benchmarks/results"))


def matrix_plan(config: BenchConfig) -> List[str]:
    """The standard plan stage shared by every suite-matrix sweep: one unit per
    matrix of the configuration, in Table II order."""
    return config.matrix_names()


def _jsonable(value: Any) -> Any:
    """Normalise a row/count value into strict-JSON-representable form.

    Non-finite floats map to ``None`` — ``json.dumps`` would otherwise emit
    the non-standard ``NaN``/``Infinity`` tokens, which most parsers outside
    Python reject, corrupting the ``BENCH_*`` records CI uploads.
    """
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # NumPy scalars
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass
class ExperimentResult:
    """Structured outcome of one :meth:`Experiment.run`.

    ``rows`` holds the per-unit row dataclasses in plan order (plain dicts after a
    JSON round-trip); ``counts`` holds the deterministic measurables that must be
    identical across backends and pool widths. ``jobs`` is the pool width the
    units were mapped with (1: in order in the caller).
    """

    experiment: str
    backend: str
    jobs: int
    scale: float
    seed: int
    trials: int
    units: int
    elapsed_seconds: float
    counts: Dict[str, Any]
    rows: List[Any] = field(default_factory=list)
    #: Intra-graph partition count the run used (None = unpartitioned).
    parts: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        rows = [
            _jsonable(dataclasses.asdict(r)) if dataclasses.is_dataclass(r) else _jsonable(r)
            for r in self.rows
        ]
        return {
            "experiment": self.experiment,
            "backend": self.backend,
            "jobs": self.jobs,
            "scale": self.scale,
            "seed": self.seed,
            "trials": self.trials,
            "units": self.units,
            "parts": self.parts,
            "elapsed_seconds": self.elapsed_seconds,
            "counts": _jsonable(self.counts),
            "rows": rows,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        return cls(
            experiment=data["experiment"],
            backend=data["backend"],
            jobs=data["jobs"],
            scale=data["scale"],
            seed=data["seed"],
            trials=data["trials"],
            units=data["units"],
            elapsed_seconds=data["elapsed_seconds"],
            counts=dict(data["counts"]),
            rows=list(data["rows"]),
            parts=data.get("parts"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))

    @property
    def filename(self) -> str:
        """The ``BENCH_*`` perf-trajectory filename this result persists under.

        Partitioned runs get a ``_p<k>`` infix so they never clobber the
        unpartitioned — or each other's — trajectory records.
        """
        infix = f"_p{self.parts}" if self.parts else ""
        return f"BENCH_{self.experiment}{infix}_{self.backend}.json"

    def save(self, directory: "Optional[Path | str]" = None) -> Path:
        """Write the JSON record under ``directory`` (default: ``benchmarks/results/``)."""
        directory = Path(directory) if directory is not None else default_results_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / self.filename
        path.write_text(self.to_json() + "\n")
        return path


@dataclass(frozen=True)
class _TaskInvocation:
    """Picklable closure binding an experiment task to its config.

    This is what a pooled run ships to its workers: the task function (a
    module-level callable or a :func:`functools.partial` of one — never a
    lambda) and the frozen :class:`BenchConfig`, whose ``backend`` names the
    backend a parts-aware task runs its partitioned calls on.
    """

    task: Callable[[Any, BenchConfig], Any]
    config: BenchConfig

    def __call__(self, unit: Any) -> Any:
        return self.task(unit, self.config)


@dataclass(frozen=True)
class Experiment:
    """One paper experiment, expressed as plan + picklable task + render stages."""

    #: Registry/CLI name (``table1`` … ``fig7``, ``smoke``).
    name: str
    #: One-line description shown by ``--list`` style output.
    title: str
    #: Plan stage: the picklable work units this experiment sweeps over.
    plan: Callable[[BenchConfig], Sequence[Any]]
    #: Map stage: module-level ``task(unit, config) -> row`` (picklable, no lambdas).
    task: Callable[[Any, BenchConfig], Any]
    #: Reduce stage: format collected rows as the paper-style table text.
    render: Callable[[List[Any]], str]
    #: Row attribute naming the unit (used to key ``counts``).
    key_field: str = "matrix"
    #: Row attributes that are deterministic (identical across backends/jobs).
    deterministic_fields: Tuple[str, ...] = ()
    #: Whether the task honours ``BenchConfig.parts`` (partition-parallel
    #: execution). Experiments that don't are rejected when ``parts`` is set —
    #: silently running unpartitioned while stamping ``parts=k`` on the record
    #: would corrupt the perf trajectory.
    parts_aware: bool = False

    def units(self, config: Optional[BenchConfig] = None) -> List[Any]:
        """The work units the plan stage produces for ``config``."""
        return list(self.plan(config if config is not None else BenchConfig()))

    def counts(self, rows: Sequence[Any]) -> Dict[str, Any]:
        """Extract the deterministic measurables from ``rows`` (what ``compare`` gates)."""
        out: Dict[str, Any] = {}
        for row in rows:
            key = str(getattr(row, self.key_field))
            for fname in self.deterministic_fields:
                out[f"{key}/{fname}"] = _jsonable(getattr(row, fname))
        return out

    def run(
        self,
        config: Optional[BenchConfig] = None,
        jobs: Optional[int] = None,
        units: Optional[Sequence[Any]] = None,
        task: Optional[Callable[[Any, BenchConfig], Any]] = None,
    ) -> ExperimentResult:
        """Execute the experiment: map its task over the units, in plan order.

        Parameters
        ----------
        config:
            Benchmark knobs (defaults to :class:`BenchConfig()`). Its
            ``backend`` (``None``: numpy) names the backend a parts-aware
            task runs its partitioned calls on. A flat run (``parts`` is
            ``None``) opens no session, so any backend but numpy raises
            ``ValueError`` there.
        jobs:
            Worker processes the units are mapped over. ``None`` or 1 maps
            them in order in the caller; ``N >= 2`` maps them over a
            :class:`~concurrent.futures.ProcessPoolExecutor` of
            ``min(N, units)`` workers, each of which opens its own rank
            clusters for a distributed partitioned call. A bool or a
            non-integer raises ``ValueError`` before any unit runs.
            Fork-started workers keep the parent's BLAS thread count, so run
            a BLAS-heavy experiment (Table VI) pooled with
            ``OPENBLAS_NUM_THREADS=1`` in the environment.
        units / task:
            Optional overrides used by ``run_*`` wrappers that expose extra
            driver parameters (custom grids, tolerances, …). An override task
            must still be picklable for a pooled run.
        """
        jobs = _check_count("jobs", jobs) or 1
        config = config if config is not None else BenchConfig()
        if config.parts is not None and not self.parts_aware:
            raise ValueError(
                f"experiment {self.name!r} does not support partition-parallel "
                f"execution (parts={config.parts}); parts-aware experiments: "
                f"{sorted(n for n, e in _EXPERIMENTS.items() if e.parts_aware)}"
            )
        resolved = get_backend(config.backend or "numpy")
        if config.parts is None and resolved.name != "numpy":
            raise ValueError(
                f"backend {resolved.name!r} picks where partitioned parts run; "
                f"a flat run (parts=None) opens no session, so it takes only numpy"
            )
        config = dataclasses.replace(config, backend=resolved.name)
        work = list(units) if units is not None else list(self.plan(config))
        invocation = _TaskInvocation(task if task is not None else self.task, config)
        start = time.perf_counter()
        if jobs == 1 or not work:
            rows = [invocation(unit) for unit in work]
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
                rows = list(pool.map(invocation, work))
        elapsed = time.perf_counter() - start
        return ExperimentResult(
            experiment=self.name,
            backend=resolved.name,
            jobs=jobs,
            scale=config.scale,
            seed=config.seed,
            trials=config.trials,
            units=len(work),
            elapsed_seconds=elapsed,
            counts=self.counts(rows),
            rows=rows,
            parts=config.parts,
        )

    def run_and_render(
        self, config: Optional[BenchConfig] = None, jobs: Optional[int] = None
    ) -> Tuple[ExperimentResult, str]:
        """Run the experiment and format its rows (the CLI's main path)."""
        result = self.run(config, jobs=jobs)
        return result, self.render(result.rows)


# ---------------------------------------------------------------------- registry
_EXPERIMENTS: Dict[str, Experiment] = {}


def register_experiment(experiment: Experiment, *, overwrite: bool = False) -> Experiment:
    """Register ``experiment`` under its name for CLI lookup."""
    if not isinstance(experiment, Experiment):
        raise TypeError("experiment must be an Experiment instance")
    if experiment.name in _EXPERIMENTS and not overwrite:
        raise ValueError(f"experiment {experiment.name!r} is already registered")
    _EXPERIMENTS[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    """Resolve an experiment by registry name."""
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; registered: {sorted(_EXPERIMENTS)}"
        ) from None


def experiment_names() -> List[str]:
    """Names of every registered experiment, in registration order."""
    return list(_EXPERIMENTS)


def run_experiment(
    name: str,
    config: Optional[BenchConfig] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Run a registered experiment by name."""
    return get_experiment(name).run(config, jobs=jobs)
