"""Table II: suite statistics and mean MIS-2 times on the four architectures.

The hardware columns (V100, MI100, Skylake, ThunderX2) are reproduced through the
roofline cost model of :mod:`repro.parallel.costmodel` applied to the memory-traffic
counters recorded by Algorithm 1; the Python wall-clock time of the vectorised kernel
is reported as well for completeness, and the paper's published milliseconds are
attached to every row for direct comparison.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List

from ..graph.ops import degree_statistics
from ..graph.suite import paper_statistics
from ..mis.kk import kk_mis2
from ..parallel.costmodel import predict_device_time, scale_traffic
from ..parallel.machine import device_names
from ..util.tables import Table
from ..util.timing import repeat_timed
from .config import BenchConfig, cached_suite_graph
from .experiment import Experiment, matrix_plan, register_experiment

__all__ = ["Table2Row", "run_table2", "table2_table", "TABLE2_EXPERIMENT"]


@dataclass(frozen=True)
class Table2Row:
    """Statistics and times (milliseconds) for one matrix."""

    matrix: str
    num_vertices: int
    num_edge_slots: int
    avg_degree: float
    max_degree: int
    #: Predicted time per device key, milliseconds.
    predicted_ms: Dict[str, float]
    #: Measured Python wall-clock of the vectorised kernel, milliseconds.
    python_ms: float
    #: Published per-device times, milliseconds (paper Table II).
    paper_ms: Dict[str, float]


def table2_task(
    name: str, config: BenchConfig, extrapolate_to_paper_size: bool = True
) -> Table2Row:
    """Per-matrix map stage: suite statistics plus modelled/measured MIS-2 times."""
    graph = cached_suite_graph(name, config.scale, config.seed, config.mtx_dir)
    result, stats = repeat_timed(
        lambda: kk_mis2(graph, seed=config.seed),
        trials=config.trials,
        warmup=config.warmup,
    )
    degs = degree_statistics(graph)
    traffic = result.traffic
    if extrapolate_to_paper_size:
        record = paper_statistics(name)
        factor = record.paper_num_vertices / max(1, graph.num_vertices)
        traffic = scale_traffic(traffic, factor)
    predicted = {
        key: predict_device_time(traffic, key) * 1e3 for key in device_names()
    }
    return Table2Row(
        matrix=name,
        num_vertices=degs.num_vertices,
        num_edge_slots=degs.num_edge_slots,
        avg_degree=degs.average_degree,
        max_degree=degs.max_degree,
        predicted_ms=predicted,
        python_ms=stats.mean * 1e3,
        paper_ms=paper_statistics(name).paper_times_ms,
    )


def _render(rows: List[Table2Row]) -> str:
    return table2_table(rows).render()


TABLE2_EXPERIMENT = register_experiment(
    Experiment(
        name="table2",
        title="Table II: suite statistics and modelled MIS-2 times per architecture",
        plan=matrix_plan,
        task=table2_task,
        render=_render,
        key_field="matrix",
        deterministic_fields=("num_vertices", "num_edge_slots", "max_degree", "predicted_ms"),
    )
)


def run_table2(
    config: BenchConfig = BenchConfig(),
    extrapolate_to_paper_size: bool = True,
) -> List[Table2Row]:
    """Run the Table II experiment and return one row per suite matrix.

    With ``extrapolate_to_paper_size`` (default) the recorded traffic is scaled from
    the stand-in's vertex count up to the paper's full problem size before the device
    model is applied, so the predicted milliseconds are directly comparable to the
    paper's Table II columns; the Python wall-clock column always refers to the
    stand-in actually executed.
    """
    task = None
    if not extrapolate_to_paper_size:
        task = functools.partial(table2_task, extrapolate_to_paper_size=False)
    return TABLE2_EXPERIMENT.run(config, task=task).rows


def table2_table(rows: List[Table2Row]) -> Table:
    """Format Table II rows as a paper-style text table."""
    table = Table(
        [
            "matrix", "|V|", "|E|", "avg deg", "max deg",
            "V100 (ms)", "MI100 (ms)", "Skylake (ms)", "TX2 (ms)", "Python (ms)",
        ],
        title="Table II: suite statistics and modelled MIS-2 times per architecture",
    )
    for row in rows:
        table.add_row(
            [
                row.matrix,
                row.num_vertices,
                row.num_edge_slots,
                round(row.avg_degree, 2),
                row.max_degree,
                round(row.predicted_ms["v100"], 3),
                round(row.predicted_ms["mi100"], 3),
                round(row.predicted_ms["skylake"], 3),
                round(row.predicted_ms["tx2"], 3),
                round(row.python_ms, 3),
            ]
        )
    return table
