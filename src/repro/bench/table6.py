"""Table VI: point vs cluster multicolor symmetric Gauss-Seidel as GMRES preconditioners.

For five systems (bodyy5, Elasticity3D_60, Geo_1438, Laplace3D_100, Serena — synthetic
stand-ins at reproduction scale) the paper compares the point multicolor SGS
preconditioner of Kokkos Kernels against the cluster multicolor SGS of Algorithm 4
(clusters from Algorithm 3 aggregation), reporting setup time, total apply (solve)
time and GMRES iterations. The shape to reproduce: the cluster method's setup is
cheaper (it colors a much smaller, coarsened graph) and its iteration count is in the
same ballpark as the point method's (the paper reports ~5% fewer iterations,
geometric mean).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..graph.suite import paper_statistics
from ..solvers.gmres import gmres
from ..gs.cluster import ClusterMulticolorGaussSeidel
from ..gs.multicolor import MulticolorGaussSeidel
from ..util.tables import Table
from .config import BenchConfig, cached_suite_matrix
from .experiment import Experiment, register_experiment

__all__ = [
    "Table6Row", "run_table6", "table6_table", "PAPER_TABLE6", "TABLE6_MATRICES",
    "TABLE6_EXPERIMENT",
]

#: Matrices used in the paper's Table VI.
TABLE6_MATRICES: Tuple[str, ...] = (
    "bodyy5", "Elasticity3D_60", "Geo_1438", "Laplace3D_100", "Serena",
)

#: Paper reference rows:
#: name -> (point setup s, cluster setup s, point apply s, cluster apply s, point iters, cluster iters).
PAPER_TABLE6: Dict[str, Tuple[float, float, float, float, float, float]] = {
    "bodyy5": (0.0154, 0.00849, 0.124, 0.0616, 187.0, 172.6),
    "Elasticity3D_60": (0.174, 0.0438, 7.41, 4.56, 328.2, 337.4),
    "Geo_1438": (0.209, 0.0662, 11.1, 4.73, 408.5, 388.4),
    "Laplace3D_100": (0.0553, 0.0409, 0.664, 0.567, 158.4, 144.6),
    "Serena": (0.215, 0.0664, 6.55, 2.93, 227.0, 219.2),
}


@dataclass(frozen=True)
class Table6Row:
    """Measured preconditioner comparison for one matrix."""

    matrix: str
    point_setup_seconds: float
    cluster_setup_seconds: float
    point_apply_seconds: float
    cluster_apply_seconds: float
    point_iterations: int
    cluster_iterations: int
    point_converged: bool
    cluster_converged: bool
    paper: Tuple[float, float, float, float, float, float]


def _plan(config: BenchConfig) -> List[str]:
    return list(config.matrices if config.matrices is not None else TABLE6_MATRICES)


def table6_task(
    name: str, config: BenchConfig, tol: float = 1e-8, maxiter: int = 800
) -> Table6Row:
    """Per-matrix map stage: point vs cluster multicolor SGS preconditioning GMRES."""
    A = cached_suite_matrix(name, config.scale, config.seed, config.mtx_dir)
    b = np.ones(A.shape[0])
    point = MulticolorGaussSeidel(A, sweeps=1, symmetric=True)
    cluster = ClusterMulticolorGaussSeidel(A, sweeps=1, symmetric=True)

    start = time.perf_counter()
    point_result = gmres(A, b, M=point.as_preconditioner(), tol=tol, maxiter=maxiter)
    point_apply = time.perf_counter() - start
    start = time.perf_counter()
    cluster_result = gmres(A, b, M=cluster.as_preconditioner(), tol=tol, maxiter=maxiter)
    cluster_apply = time.perf_counter() - start

    return Table6Row(
        matrix=name,
        point_setup_seconds=point.setup_seconds,
        cluster_setup_seconds=cluster.setup_seconds,
        point_apply_seconds=point_apply,
        cluster_apply_seconds=cluster_apply,
        point_iterations=point_result.iterations,
        cluster_iterations=cluster_result.iterations,
        point_converged=point_result.converged,
        cluster_converged=cluster_result.converged,
        paper=PAPER_TABLE6.get(name, (float("nan"),) * 6),
    )


def _render(rows: List[Table6Row]) -> str:
    return table6_table(rows).render()


TABLE6_EXPERIMENT = register_experiment(
    Experiment(
        name="table6",
        title="Table VI: point vs cluster multicolor SGS preconditioning GMRES",
        plan=_plan,
        task=table6_task,
        render=_render,
        key_field="matrix",
        deterministic_fields=("point_iterations", "cluster_iterations"),
    )
)


def run_table6(
    config: BenchConfig = BenchConfig(),
    tol: float = 1e-8,
    maxiter: int = 800,
) -> List[Table6Row]:
    """Run the Table VI experiment on the five stand-in systems."""
    task = None
    if (tol, maxiter) != (1e-8, 800):
        task = functools.partial(table6_task, tol=tol, maxiter=maxiter)
    return TABLE6_EXPERIMENT.run(config, task=task).rows


def table6_table(rows: List[Table6Row]) -> Table:
    """Format Table VI rows as a paper-style text table."""
    table = Table(
        ["matrix", "P. setup (s)", "C. setup (s)", "P. apply (s)", "C. apply (s)",
         "P. iters", "C. iters", "paper P./C. iters"],
        title="Table VI: point vs cluster multicolor SGS preconditioning GMRES",
    )
    for row in rows:
        table.add_row(
            [
                row.matrix,
                round(row.point_setup_seconds, 4), round(row.cluster_setup_seconds, 4),
                round(row.point_apply_seconds, 3), round(row.cluster_apply_seconds, 3),
                row.point_iterations, row.cluster_iterations,
                f"{row.paper[4]:.1f} / {row.paper[5]:.1f}",
            ]
        )
    return table
