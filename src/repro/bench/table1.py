"""Table I: MIS-2 iteration counts for the three priority schemes.

The paper's Table I compares "Fixed" (Bell-style priorities drawn once), "Xor Hash"
(per-iteration xorshift) and "Xor* Hash" (per-iteration xorshift*, the scheme used by
Algorithm 1) on the 17-matrix suite. The headline observations to reproduce are:

* xorshift* needs the fewest iterations on every matrix;
* plain xorshift is usually *worse* than fixed priorities (the hash is correlated
  between iterations);
* fixed priorities sit in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..graph.suite import paper_statistics
from ..hashing.priorities import PriorityScheme
from ..mis.kk import kk_mis2
from ..util.tables import Table
from .config import BenchConfig, cached_suite_graph
from .experiment import Experiment, matrix_plan, register_experiment

__all__ = ["Table1Row", "run_table1", "table1_table", "TABLE1_EXPERIMENT"]


@dataclass(frozen=True)
class Table1Row:
    """Measured and published iteration counts for one matrix."""

    matrix: str
    fixed: int
    xor: int
    xorstar: int
    paper_fixed: int
    paper_xor: int
    paper_xorstar: int


def table1_task(name: str, config: BenchConfig) -> Table1Row:
    """Per-matrix map stage: MIS-2 iteration counts for the three priority schemes."""
    graph = cached_suite_graph(name, config.scale, config.seed, config.mtx_dir)
    iters: Dict[str, int] = {}
    for scheme in (PriorityScheme.FIXED, PriorityScheme.XOR, PriorityScheme.XORSTAR):
        result = kk_mis2(graph, priority_scheme=scheme, seed=config.seed)
        iters[scheme.value] = result.iterations
    paper = paper_statistics(name).paper_iterations
    return Table1Row(
        matrix=name,
        fixed=iters["fixed"],
        xor=iters["xor"],
        xorstar=iters["xorstar"],
        paper_fixed=paper.get("fixed", -1),
        paper_xor=paper.get("xor", -1),
        paper_xorstar=paper.get("xorstar", -1),
    )


def _render(rows: List[Table1Row]) -> str:
    return table1_table(rows).render()


TABLE1_EXPERIMENT = register_experiment(
    Experiment(
        name="table1",
        title="Table I: MIS-2 iteration counts for three random priority methods",
        plan=matrix_plan,
        task=table1_task,
        render=_render,
        key_field="matrix",
        deterministic_fields=("fixed", "xor", "xorstar"),
    )
)


def run_table1(
    config: BenchConfig = BenchConfig(),
) -> List[Table1Row]:
    """Run the Table I experiment and return one row per suite matrix."""
    return TABLE1_EXPERIMENT.run(config).rows


def table1_table(rows: List[Table1Row]) -> Table:
    """Format Table I rows as a paper-style text table."""
    table = Table(
        ["matrix", "Fixed", "Xor", "Xor*", "paper Fixed", "paper Xor", "paper Xor*"],
        title="Table I: MIS-2 iteration counts for three random priority methods",
    )
    for row in rows:
        table.add_row(
            [row.matrix, row.fixed, row.xor, row.xorstar,
             row.paper_fixed, row.paper_xor, row.paper_xorstar]
        )
    return table
