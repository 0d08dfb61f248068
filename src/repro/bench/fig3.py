"""Fig. 3: bandwidth-efficiency profiles across the four architectures.

The paper defines bandwidth efficiency as "MIS-2 instances computed per second divided
by the device's memory bandwidth"; with perfect performance portability the value is
identical on every device. Fig. 3 plots, per matrix, each device's efficiency as a
fraction of the best efficiency among the four devices. The same quantity is computed
here from the roofline cost model (kernel-launch overheads are what breaks perfect
portability in the model, just as launch/latency overheads do on real hardware).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List

from ..mis.kk import kk_mis2
from ..graph.suite import paper_statistics
from ..parallel.costmodel import bandwidth_efficiency, scale_traffic
from ..parallel.machine import device_names
from ..util.tables import Table
from .config import BenchConfig, cached_suite_graph
from .experiment import Experiment, matrix_plan, register_experiment

__all__ = ["Fig3Row", "run_fig3", "fig3_table", "FIG3_EXPERIMENT"]


@dataclass(frozen=True)
class Fig3Row:
    """Bandwidth-efficiency profile of one matrix."""

    matrix: str
    #: Device key -> raw bandwidth efficiency (instances/s per GB/s).
    efficiency: Dict[str, float]

    def normalized(self) -> Dict[str, float]:
        """Each device's efficiency divided by the best device's efficiency."""
        best = max(self.efficiency.values())
        return {k: (v / best if best > 0 else 0.0) for k, v in self.efficiency.items()}

    def best_device(self) -> str:
        return max(self.efficiency, key=self.efficiency.get)


def fig3_task(
    name: str, config: BenchConfig, extrapolate_to_paper_size: bool = True
) -> Fig3Row:
    """Per-matrix map stage: bandwidth efficiency of MIS-2 on each device."""
    graph = cached_suite_graph(name, config.scale, config.seed, config.mtx_dir)
    result = kk_mis2(graph, seed=config.seed)
    traffic = result.traffic
    if extrapolate_to_paper_size:
        record = paper_statistics(name)
        traffic = scale_traffic(traffic, record.paper_num_vertices / max(1, graph.num_vertices))
    eff = {key: bandwidth_efficiency(traffic, key) for key in device_names()}
    return Fig3Row(matrix=name, efficiency=eff)


def _render(rows: List[Fig3Row]) -> str:
    return fig3_table(rows).render()


FIG3_EXPERIMENT = register_experiment(
    Experiment(
        name="fig3",
        title="Fig. 3: bandwidth-efficiency profiles of the four architectures",
        plan=matrix_plan,
        task=fig3_task,
        render=_render,
        key_field="matrix",
        deterministic_fields=("efficiency",),
    )
)


def run_fig3(
    config: BenchConfig = BenchConfig(),
    extrapolate_to_paper_size: bool = True,
) -> List[Fig3Row]:
    """Compute the bandwidth-efficiency profile for every suite matrix.

    With ``extrapolate_to_paper_size`` (default) the traffic is scaled to the paper's
    problem sizes first, so the GPU profiles are bandwidth-dominated as in the paper
    rather than launch-latency-dominated (which is what happens at the small default
    reproduction scale).
    """
    task = None
    if not extrapolate_to_paper_size:
        task = functools.partial(fig3_task, extrapolate_to_paper_size=False)
    return FIG3_EXPERIMENT.run(config, task=task).rows


def fig3_table(rows: List[Fig3Row]) -> Table:
    """Format the Fig. 3 profiles (fraction of best efficiency per device)."""
    table = Table(
        ["matrix"] + [f"{key} (frac of best)" for key in device_names()] + ["best device"],
        title="Fig. 3: bandwidth-efficiency profiles of the four architectures",
    )
    for row in rows:
        norm = row.normalized()
        table.add_row(
            [row.matrix] + [round(norm[key], 3) for key in device_names()] + [row.best_device()]
        )
    return table
