"""Table IV: quality (set size) of the MIS-2 produced by Kokkos Kernels, CUSP and
ViennaCL.

CUSP and ViennaCL both implement Bell's MIS-2; in this reproduction the "CUSP" and
"ViennaCL" columns therefore run :func:`repro.mis.bell.bell_mis` with two different
fixed-priority seeds (the two libraries draw different random priorities, which is the
only source of difference between them in practice). The claim to reproduce is that
all three produce sets of very similar size, i.e. the speed of Algorithm 1 does not
cost quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..graph.suite import paper_statistics
from ..mis.bell import bell_mis
from ..mis.kk import kk_mis2
from ..util.tables import Table
from .config import BenchConfig, cached_suite_graph
from .experiment import Experiment, matrix_plan, register_experiment

__all__ = ["Table4Row", "run_table4", "table4_table", "TABLE4_EXPERIMENT"]


@dataclass(frozen=True)
class Table4Row:
    """MIS-2 sizes for one matrix (measured and published)."""

    matrix: str
    kk: int
    cusp: int
    viennacl: int
    num_vertices: int
    paper_kk: int
    paper_cusp: int
    paper_viennacl: int

    @property
    def max_relative_spread(self) -> float:
        """Largest relative difference between the three measured sizes."""
        values = [self.kk, self.cusp, self.viennacl]
        low, high = min(values), max(values)
        return (high - low) / max(1, low)


def table4_task(name: str, config: BenchConfig) -> Table4Row:
    """Per-matrix map stage: MIS-2 sizes for the KK, CUSP and ViennaCL schemes."""
    graph = cached_suite_graph(name, config.scale, config.seed, config.mtx_dir)
    kk = kk_mis2(graph, seed=config.seed)
    cusp = bell_mis(graph, k=2, seed=config.seed)
    viennacl = bell_mis(graph, k=2, seed=config.seed + 1)
    paper = paper_statistics(name).paper_mis2_sizes
    return Table4Row(
        matrix=name,
        kk=kk.size,
        cusp=cusp.size,
        viennacl=viennacl.size,
        num_vertices=graph.num_vertices,
        paper_kk=paper.get("kk", -1),
        paper_cusp=paper.get("cusp", -1),
        paper_viennacl=paper.get("viennacl", -1),
    )


def _render(rows: List[Table4Row]) -> str:
    return table4_table(rows).render()


TABLE4_EXPERIMENT = register_experiment(
    Experiment(
        name="table4",
        title="Table IV: MIS-2 sizes for Kokkos Kernels, CUSP and ViennaCL",
        plan=matrix_plan,
        task=table4_task,
        render=_render,
        key_field="matrix",
        deterministic_fields=("kk", "cusp", "viennacl", "num_vertices"),
    )
)


def run_table4(
    config: BenchConfig = BenchConfig(),
) -> List[Table4Row]:
    """Run the Table IV experiment and return one row per suite matrix."""
    return TABLE4_EXPERIMENT.run(config).rows


def table4_table(rows: List[Table4Row]) -> Table:
    """Format Table IV rows as a paper-style text table."""
    table = Table(
        ["matrix", "KK", "CUSP", "ViennaCL", "spread %", "paper KK", "paper CUSP", "paper ViennaCL"],
        title="Table IV: MIS-2 sizes for Kokkos Kernels, CUSP and ViennaCL (higher is better)",
    )
    for row in rows:
        table.add_row(
            [
                row.matrix, row.kk, row.cusp, row.viennacl,
                round(100.0 * row.max_relative_spread, 2),
                row.paper_kk, row.paper_cusp, row.paper_viennacl,
            ]
        )
    return table
