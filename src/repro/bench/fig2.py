"""Fig. 2: cumulative speedup of the four optimizations over the Bell baseline.

The paper reports, per matrix on a V100, the speedup of each rung of the optimization
ladder (random priorities, worklists, packed tuples, SIMD) over the Kokkos
implementation of Bell's algorithm, with geometric-mean speedups of 1.28x, 2.55x,
1.72x and 1.37x respectively (8.97x combined). Here every rung is executed with
:func:`repro.mis.variants.run_optimization_level`; speedups are reported both from the
V100 roofline model applied to the recorded memory traffic (the primary reproduction
of the figure) and from the Python wall-clock of the vectorised kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List

from ..graph.suite import paper_statistics
from ..mis.variants import OPTIMIZATION_LEVELS, run_optimization_level
from ..parallel.costmodel import predict_device_time, scale_traffic
from ..util.tables import Table, geometric_mean
from ..util.timing import repeat_timed
from .config import BenchConfig, cached_suite_graph
from .experiment import Experiment, matrix_plan, register_experiment

__all__ = [
    "Fig2Row", "run_fig2", "fig2_table", "fig2_geometric_means", "PAPER_FIG2_MEANS",
    "FIG2_EXPERIMENT",
]

#: Geometric-mean cumulative speedups reported by the paper (V100).
PAPER_FIG2_MEANS: Dict[str, float] = {
    "random_priority": 1.28,
    "worklist": 1.28 * 2.55,
    "packed_status": 1.28 * 2.55 * 1.72,
    "simd": 8.97,
}


@dataclass(frozen=True)
class Fig2Row:
    """Per-matrix modelled/measured times for every optimization level."""

    matrix: str
    #: Level key -> predicted V100 milliseconds.
    predicted_ms: Dict[str, float]
    #: Level key -> measured Python milliseconds.
    python_ms: Dict[str, float]

    def speedup(self, level_key: str, use_model: bool = True) -> float:
        """Speedup of ``level_key`` over the baseline level."""
        source = self.predicted_ms if use_model else self.python_ms
        return source["baseline"] / source[level_key]


def fig2_task(
    name: str, config: BenchConfig, extrapolate_to_paper_size: bool = True
) -> Fig2Row:
    """Per-matrix map stage: the four-rung optimization ladder over the Bell baseline."""
    graph = cached_suite_graph(name, config.scale, config.seed, config.mtx_dir)
    factor = 1.0
    if extrapolate_to_paper_size:
        factor = paper_statistics(name).paper_num_vertices / max(1, graph.num_vertices)
    predicted: Dict[str, float] = {}
    python_ms: Dict[str, float] = {}
    for level in OPTIMIZATION_LEVELS:
        result, stats = repeat_timed(
            lambda lv=level: run_optimization_level(graph, lv, seed=config.seed),
            trials=config.trials,
            warmup=config.warmup,
        )
        traffic = scale_traffic(result.traffic, factor) if factor != 1.0 else result.traffic
        predicted[level.key] = predict_device_time(traffic, "v100") * 1e3
        python_ms[level.key] = stats.mean * 1e3
    return Fig2Row(matrix=name, predicted_ms=predicted, python_ms=python_ms)


def _render(rows: List[Fig2Row]) -> str:
    return (
        fig2_table(rows, use_model=True).render()
        + "\n\n"
        + fig2_table(rows, use_model=False).render()
    )


FIG2_EXPERIMENT = register_experiment(
    Experiment(
        name="fig2",
        title="Fig. 2: cumulative speedups of the optimization ladder over the Bell baseline",
        plan=matrix_plan,
        task=fig2_task,
        render=_render,
        key_field="matrix",
        deterministic_fields=("predicted_ms",),
    )
)


def run_fig2(
    config: BenchConfig = BenchConfig(),
    extrapolate_to_paper_size: bool = True,
) -> List[Fig2Row]:
    """Run the optimization ladder on every suite matrix.

    With ``extrapolate_to_paper_size`` (default) the traffic of every level is scaled
    to the paper's problem size before the V100 model is applied, so the modelled
    speedups correspond to the bandwidth-dominated regime Fig. 2 was measured in.
    """
    task = None
    if not extrapolate_to_paper_size:
        task = functools.partial(fig2_task, extrapolate_to_paper_size=False)
    return FIG2_EXPERIMENT.run(config, task=task).rows


def fig2_geometric_means(rows: List[Fig2Row], use_model: bool = True) -> Dict[str, float]:
    """Geometric-mean cumulative speedup per optimization level (over the baseline)."""
    means: Dict[str, float] = {}
    for level in OPTIMIZATION_LEVELS[1:]:
        means[level.key] = geometric_mean([row.speedup(level.key, use_model) for row in rows])
    return means


def fig2_table(rows: List[Fig2Row], use_model: bool = True) -> Table:
    """Format the Fig. 2 data as a per-matrix speedup table plus geometric means."""
    source = "V100 model" if use_model else "Python wall-clock"
    table = Table(
        ["matrix"] + [level.label for level in OPTIMIZATION_LEVELS[1:]],
        title=f"Fig. 2: cumulative speedups over the Bell baseline ({source})",
    )
    for row in rows:
        table.add_row(
            [row.matrix]
            + [round(row.speedup(level.key, use_model), 2) for level in OPTIMIZATION_LEVELS[1:]]
        )
    means = fig2_geometric_means(rows, use_model)
    table.add_row(["geometric mean"] + [round(means[lv.key], 2) for lv in OPTIMIZATION_LEVELS[1:]])
    return table
