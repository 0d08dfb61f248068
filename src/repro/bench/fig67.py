"""Figs. 6 and 7: Algorithm 1 vs CUSP (MIS-2 alone) and vs ViennaCL (MIS-2 + coarsening).

Fig. 6 compares Kokkos Kernels MIS-2 against CUSP's implementation of Bell's
algorithm on a V100 (5-7x speedup over the 17 matrices); Fig. 7 compares MIS-2 plus
the basic coarsening of Algorithm 2 against ViennaCL's equivalent pipeline (3-8x).
In this reproduction the CUSP/ViennaCL side is :func:`repro.mis.bell.bell_mis`
(+ Algorithm 2 for Fig. 7), and speedups are reported both through the V100 roofline
model (primary) and as Python wall-clock ratios of the vectorised kernels.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import List

from ..coarsen.basic import mis2_basic_aggregation
from ..graph.suite import paper_statistics
from ..mis.bell import bell_mis
from ..mis.kk import kk_mis2
from ..parallel.costmodel import predict_device_time, scale_traffic
from ..util.tables import Table, geometric_mean
from ..util.timing import repeat_timed
from .config import BenchConfig, cached_suite_graph
from .experiment import Experiment, matrix_plan, register_experiment

__all__ = [
    "SpeedupRow", "run_fig6", "run_fig7", "speedup_table",
    "FIG6_EXPERIMENT", "FIG7_EXPERIMENT",
]


@dataclass(frozen=True)
class SpeedupRow:
    """Speedup of the Kokkos Kernels pipeline over the baseline library for one matrix."""

    matrix: str
    #: Which comparison this row belongs to (``"cusp"`` for Fig. 6, ``"viennacl"`` for Fig. 7).
    baseline: str
    kk_model_ms: float
    baseline_model_ms: float
    kk_python_ms: float
    baseline_python_ms: float

    @property
    def model_speedup(self) -> float:
        return self.baseline_model_ms / self.kk_model_ms if self.kk_model_ms > 0 else float("nan")

    @property
    def python_speedup(self) -> float:
        return (
            self.baseline_python_ms / self.kk_python_ms if self.kk_python_ms > 0 else float("nan")
        )


def fig6_task(
    name: str, config: BenchConfig, extrapolate_to_paper_size: bool = True
) -> SpeedupRow:
    """Per-matrix map stage: Algorithm 1 vs CUSP (Bell's algorithm), MIS-2 alone."""
    graph = cached_suite_graph(name, config.scale, config.seed, config.mtx_dir)
    factor = 1.0
    if extrapolate_to_paper_size:
        factor = paper_statistics(name).paper_num_vertices / max(1, graph.num_vertices)
    kk_result, kk_stats = repeat_timed(
        lambda: kk_mis2(graph, seed=config.seed), trials=config.trials, warmup=config.warmup
    )
    bell_result, bell_stats = repeat_timed(
        lambda: bell_mis(graph, k=2, seed=config.seed),
        trials=config.trials,
        warmup=config.warmup,
    )
    return SpeedupRow(
        matrix=name,
        baseline="cusp",
        kk_model_ms=predict_device_time(scale_traffic(kk_result.traffic, factor), "v100") * 1e3,
        baseline_model_ms=predict_device_time(
            scale_traffic(bell_result.traffic, factor), "v100") * 1e3,
        kk_python_ms=kk_stats.mean * 1e3,
        baseline_python_ms=bell_stats.mean * 1e3,
    )


def fig7_task(
    name: str, config: BenchConfig, extrapolate_to_paper_size: bool = True
) -> SpeedupRow:
    """Per-matrix map stage: MIS-2 + basic coarsening, Algorithm 1 vs ViennaCL."""
    graph = cached_suite_graph(name, config.scale, config.seed, config.mtx_dir)
    factor = 1.0
    if extrapolate_to_paper_size:
        factor = paper_statistics(name).paper_num_vertices / max(1, graph.num_vertices)

    def kk_pipeline():
        mis = kk_mis2(graph, seed=config.seed)
        mis2_basic_aggregation(graph, mis=mis)
        return mis

    def viennacl_pipeline():
        mis = bell_mis(graph, k=2, seed=config.seed)
        mis2_basic_aggregation(graph, mis=mis)
        return mis

    kk_result, kk_stats = repeat_timed(
        kk_pipeline, trials=config.trials, warmup=config.warmup
    )
    vcl_result, vcl_stats = repeat_timed(
        viennacl_pipeline, trials=config.trials, warmup=config.warmup
    )
    return SpeedupRow(
        matrix=name,
        baseline="viennacl",
        kk_model_ms=predict_device_time(scale_traffic(kk_result.traffic, factor), "v100") * 1e3,
        baseline_model_ms=predict_device_time(
            scale_traffic(vcl_result.traffic, factor), "v100") * 1e3,
        kk_python_ms=kk_stats.mean * 1e3,
        baseline_python_ms=vcl_stats.mean * 1e3,
    )


def _render_fig6(rows: List[SpeedupRow]) -> str:
    return speedup_table(rows, "Fig. 6: Algorithm 1 vs CUSP (MIS-2)").render()


def _render_fig7(rows: List[SpeedupRow]) -> str:
    return speedup_table(rows, "Fig. 7: Algorithm 1 + coarsening vs ViennaCL").render()


FIG6_EXPERIMENT = register_experiment(
    Experiment(
        name="fig6",
        title="Fig. 6: Algorithm 1 vs CUSP (MIS-2)",
        plan=matrix_plan,
        task=fig6_task,
        render=_render_fig6,
        key_field="matrix",
        deterministic_fields=("kk_model_ms", "baseline_model_ms"),
    )
)

FIG7_EXPERIMENT = register_experiment(
    Experiment(
        name="fig7",
        title="Fig. 7: Algorithm 1 + coarsening vs ViennaCL",
        plan=matrix_plan,
        task=fig7_task,
        render=_render_fig7,
        key_field="matrix",
        deterministic_fields=("kk_model_ms", "baseline_model_ms"),
    )
)


def run_fig6(
    config: BenchConfig = BenchConfig(),
    extrapolate_to_paper_size: bool = True,
) -> List[SpeedupRow]:
    """Fig. 6: MIS-2 alone, Algorithm 1 vs CUSP (Bell's algorithm).

    With ``extrapolate_to_paper_size`` (default) both sides' traffic is scaled to the
    paper's problem size before the V100 model is applied, putting the comparison in
    the bandwidth-dominated regime of the paper's measurements.
    """
    task = None
    if not extrapolate_to_paper_size:
        task = functools.partial(fig6_task, extrapolate_to_paper_size=False)
    return FIG6_EXPERIMENT.run(config, task=task).rows


def run_fig7(
    config: BenchConfig = BenchConfig(),
    extrapolate_to_paper_size: bool = True,
) -> List[SpeedupRow]:
    """Fig. 7: MIS-2 + Algorithm 2 coarsening, Algorithm 1 vs ViennaCL (Bell + same coarsening)."""
    task = None
    if not extrapolate_to_paper_size:
        task = functools.partial(fig7_task, extrapolate_to_paper_size=False)
    return FIG7_EXPERIMENT.run(config, task=task).rows


def speedup_table(rows: List[SpeedupRow], figure: str) -> Table:
    """Format Fig. 6/7 speedups plus their geometric mean."""
    table = Table(
        ["matrix", "KK model (ms)", "baseline model (ms)", "model speedup",
         "KK python (ms)", "baseline python (ms)", "python speedup"],
        title=figure,
    )
    for row in rows:
        table.add_row(
            [
                row.matrix,
                round(row.kk_model_ms, 3), round(row.baseline_model_ms, 3),
                round(row.model_speedup, 2),
                round(row.kk_python_ms, 3), round(row.baseline_python_ms, 3),
                round(row.python_speedup, 2),
            ]
        )
    table.add_row(
        [
            "geometric mean", "-", "-",
            round(geometric_mean([r.model_speedup for r in rows]), 2),
            "-", "-",
            round(geometric_mean([r.python_speedup for r in rows]), 2),
        ]
    )
    return table
