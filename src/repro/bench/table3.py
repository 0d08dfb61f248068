"""Table III: MIS-2 size and iteration count on structured problems of growing size.

The paper varies Galeri Elasticity3D and Laplace3D grids (30^3 ... 60^3 and
50^3 ... 100^3 respectively) and reports that (i) the MIS-2 size stays proportional to
|V| for a given problem type, and (ii) the iteration count grows by only 1-2 as the
problem grows 4-8x — i.e. the expected O(log V) behaviour. The same sweep is run here
on grids scaled down by a configurable factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..graph.generators import elasticity3d, laplace3d
from ..mis.kk import kk_mis2
from ..util.tables import Table
from .config import BenchConfig
from .experiment import Experiment, register_experiment

__all__ = ["Table3Row", "run_table3", "table3_table", "PAPER_TABLE3", "TABLE3_EXPERIMENT"]

#: The paper's Table III reference rows: (problem, |V|, MIS-2 size, iterations).
PAPER_TABLE3: List[Tuple[str, int, int, int]] = [
    ("Elasticity 30x30x30", 81000, 634, 8),
    ("Elasticity 60x30x30", 162000, 1291, 10),
    ("Elasticity 60x60x30", 324000, 2454, 10),
    ("Elasticity 60x60x60", 648000, 4833, 10),
    ("Laplace 50x50x50", 125000, 11469, 9),
    ("Laplace 100x50x50", 250000, 22909, 9),
    ("Laplace 100x100x50", 500000, 45333, 9),
    ("Laplace 100x100x100", 1000000, 90041, 10),
]

#: Grid dimension sweeps mirroring the paper's, at reproduction scale.
DEFAULT_ELASTICITY_GRIDS: List[Tuple[int, int, int]] = [
    (10, 10, 10), (20, 10, 10), (20, 20, 10), (20, 20, 20)
]
DEFAULT_LAPLACE_GRIDS: List[Tuple[int, int, int]] = [
    (17, 17, 17), (34, 17, 17), (34, 34, 17), (34, 34, 34)
]


@dataclass(frozen=True)
class Table3Row:
    """MIS-2 scaling data point for one structured problem."""

    problem: str
    num_vertices: int
    mis2_size: int
    iterations: int
    mis2_fraction: float


def _units(
    elasticity_grids: Sequence[Tuple[int, int, int]],
    laplace_grids: Sequence[Tuple[int, int, int]],
) -> List[Tuple[str, int, int, int]]:
    """Work units: one (problem kind, nx, ny, nz) tuple per structured grid."""
    units = [("Elasticity", nx, ny, nz) for nx, ny, nz in elasticity_grids]
    units += [("Laplace", nx, ny, nz) for nx, ny, nz in laplace_grids]
    return units


def _plan(config: BenchConfig) -> List[Tuple[str, int, int, int]]:
    return _units(DEFAULT_ELASTICITY_GRIDS, DEFAULT_LAPLACE_GRIDS)


def table3_task(unit: Tuple[str, int, int, int], config: BenchConfig) -> Table3Row:
    """Per-grid map stage: MIS-2 size/iterations on one structured problem."""
    kind, nx, ny, nz = unit
    generator = elasticity3d if kind == "Elasticity" else laplace3d
    graph = generator(nx, ny, nz)
    result = kk_mis2(graph, seed=config.seed)
    return Table3Row(
        problem=f"{kind} {nx}x{ny}x{nz}",
        num_vertices=graph.num_vertices,
        mis2_size=result.size,
        iterations=result.iterations,
        mis2_fraction=result.size / max(1, graph.num_vertices),
    )


def _render(rows: List[Table3Row]) -> str:
    return table3_table(rows).render()


TABLE3_EXPERIMENT = register_experiment(
    Experiment(
        name="table3",
        title="Table III: MIS-2 size and iteration count for varying structured problem sizes",
        plan=_plan,
        task=table3_task,
        render=_render,
        key_field="problem",
        deterministic_fields=("num_vertices", "mis2_size", "iterations"),
    )
)


def run_table3(
    config: BenchConfig = BenchConfig(),
    elasticity_grids: Sequence[Tuple[int, int, int]] = tuple(DEFAULT_ELASTICITY_GRIDS),
    laplace_grids: Sequence[Tuple[int, int, int]] = tuple(DEFAULT_LAPLACE_GRIDS),
) -> List[Table3Row]:
    """Run the Table III sweep on Elasticity3D and Laplace3D grids."""
    return TABLE3_EXPERIMENT.run(
        config, units=_units(elasticity_grids, laplace_grids)
    ).rows


def table3_table(rows: List[Table3Row]) -> Table:
    """Format Table III rows as a paper-style text table."""
    table = Table(
        ["problem", "|V|", "|MIS-2|", "iterations", "MIS-2 fraction"],
        title="Table III: MIS-2 size and iteration count for varying structured problem sizes",
    )
    for row in rows:
        table.add_row(
            [row.problem, row.num_vertices, row.mis2_size, row.iterations,
             round(row.mis2_fraction, 4)]
        )
    return table
