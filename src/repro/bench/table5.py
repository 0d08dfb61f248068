"""Table V: SA-AMG (MueLu) setup/solve comparison across aggregation schemes.

The paper sets up a smoothed-aggregation V-cycle preconditioner for CG on a
Laplace3D problem (100^3 in the paper, a smaller grid by default here), swapping the
aggregation algorithm between five schemes, and reports CG iterations, aggregation
time, total setup time, solve time and whether the scheme is deterministic.

Schemes reproduced (paper name -> this repo):

* ``Serial Agg``   -> :func:`repro.coarsen.serial_aggregation` (sequential host loop).
* ``Serial D2C``   -> :func:`repro.coarsen.d2c_aggregation` with the *sequential*
  distance-2 coloring (host coloring + parallel aggregation).
* ``NB D2C``       -> :func:`repro.coarsen.d2c_aggregation` with the parallel
  speculative distance-2 coloring.
* ``MIS2 Basic``   -> Algorithm 2.
* ``MIS2 Agg``     -> Algorithm 3 (the paper's contribution).

Shape to reproduce: MIS2 Agg converges in the fewest (or tied-fewest) iterations,
substantially fewer than MIS2 Basic; its aggregation time is far below the serial
scheme's; and it is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..coarsen import (
    d2c_aggregation,
    mis2_aggregation,
    mis2_basic_aggregation,
    serial_aggregation,
)
from ..coloring import distance2_color, sequential_distance2_color
from ..graph.csr import CSRGraph
from ..graph.generators import laplace3d_matrix
from ..solvers.multigrid import build_hierarchy
from ..util.tables import Table
from .config import BenchConfig
from .experiment import Experiment, register_experiment

__all__ = [
    "Table5Row", "run_table5", "table5_table", "PAPER_TABLE5", "AGGREGATION_SCHEMES",
    "TABLE5_EXPERIMENT",
]

#: Default Laplace3D grid for the reproduction (the paper uses 100^3).
DEFAULT_TABLE5_GRID: Tuple[int, int, int] = (30, 30, 30)

#: Paper reference rows: name -> (iterations, agg seconds, setup seconds, solve seconds, deterministic).
PAPER_TABLE5: Dict[str, Tuple[float, float, float, float, bool]] = {
    "Serial Agg": (25, 0.673, 2.80, 0.390, True),
    "Serial D2C": (23, 0.125, 0.601, 0.383, False),
    "NB D2C": (31.3, 0.274, 0.734, 0.447, False),
    "MIS2 Basic": (49, 0.0226, 0.471, 0.562, True),
    "MIS2 Agg": (22, 0.0352, 0.538, 0.370, True),
}


def _serial_d2c(graph: CSRGraph):
    return d2c_aggregation(graph, coloring=sequential_distance2_color(graph))


def _nb_d2c(graph: CSRGraph):
    return d2c_aggregation(graph, coloring=distance2_color(graph))


#: The five aggregation schemes, in the paper's row order:
#: name -> (aggregation function, deterministic-in-the-paper flag).
AGGREGATION_SCHEMES: Dict[str, Tuple[Callable, bool]] = {
    "Serial Agg": (serial_aggregation, True),
    "Serial D2C": (_serial_d2c, False),
    "NB D2C": (_nb_d2c, False),
    "MIS2 Basic": (mis2_basic_aggregation, True),
    "MIS2 Agg": (mis2_aggregation, True),
}


@dataclass(frozen=True)
class Table5Row:
    """Measured multigrid metrics for one aggregation scheme."""

    scheme: str
    iterations: int
    aggregation_seconds: float
    setup_seconds: float
    solve_seconds: float
    deterministic: bool
    converged: bool
    levels: Tuple[int, ...]
    paper_iterations: float
    paper_agg_seconds: float
    paper_setup_seconds: float
    paper_solve_seconds: float


def _plan(config: BenchConfig) -> List[str]:
    return list(AGGREGATION_SCHEMES)


def table5_task(
    scheme: str,
    config: BenchConfig,
    grid: Tuple[int, int, int] = DEFAULT_TABLE5_GRID,
    tol: float = 1e-12,
) -> Table5Row:
    """Per-scheme map stage: SA-AMG setup/solve with one aggregation scheme.

    The scheme is carried to a pool worker by *name* and resolved against
    :data:`AGGREGATION_SCHEMES` here, so the task stays picklable even though
    the schemes themselves are functions.
    """
    fn, _paper_det = AGGREGATION_SCHEMES[scheme]
    A = laplace3d_matrix(*grid)
    b = np.ones(A.shape[0])
    hierarchy = build_hierarchy(A, aggregation_fn=fn, aggregation_name=scheme)
    result = hierarchy.solve(b, tol=tol)
    paper = PAPER_TABLE5[scheme]
    return Table5Row(
        scheme=scheme,
        iterations=result.iterations,
        aggregation_seconds=hierarchy.aggregation_seconds,
        setup_seconds=hierarchy.setup_seconds,
        solve_seconds=result.solve_seconds or 0.0,
        deterministic=True,  # every scheme in this reproduction is deterministic
        converged=result.converged,
        levels=tuple(hierarchy.level_sizes()),
        paper_iterations=paper[0],
        paper_agg_seconds=paper[1],
        paper_setup_seconds=paper[2],
        paper_solve_seconds=paper[3],
    )


def _render(rows: List[Table5Row]) -> str:
    return table5_table(rows).render()


TABLE5_EXPERIMENT = register_experiment(
    Experiment(
        name="table5",
        title="Table V: SA-AMG preconditioned CG with different aggregation schemes",
        plan=_plan,
        task=table5_task,
        render=_render,
        key_field="scheme",
        deterministic_fields=("iterations", "converged", "levels"),
    )
)


def run_table5(
    config: BenchConfig = BenchConfig(),
    grid: Tuple[int, int, int] = DEFAULT_TABLE5_GRID,
    tol: float = 1e-12,
) -> List[Table5Row]:
    """Run the Table V experiment on a Laplace3D grid (30^3 by default)."""
    task = None
    if (tuple(grid), tol) != (DEFAULT_TABLE5_GRID, 1e-12):
        task = functools.partial(table5_task, grid=tuple(grid), tol=tol)
    return TABLE5_EXPERIMENT.run(config, task=task).rows


def table5_table(rows: List[Table5Row]) -> Table:
    """Format Table V rows as a paper-style text table."""
    table = Table(
        ["scheme", "iters", "agg (s)", "setup (s)", "solve (s)", "det.",
         "paper iters", "paper agg (s)", "paper setup (s)", "paper solve (s)"],
        title="Table V: SA-AMG preconditioned CG with different aggregation schemes",
    )
    for row in rows:
        table.add_row(
            [
                row.scheme, row.iterations,
                round(row.aggregation_seconds, 4), round(row.setup_seconds, 4),
                round(row.solve_seconds, 4), row.deterministic,
                row.paper_iterations, row.paper_agg_seconds,
                row.paper_setup_seconds, row.paper_solve_seconds,
            ]
        )
    return table
