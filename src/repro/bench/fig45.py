"""Figs. 4 and 5: strong-scaling efficiency of MIS-2 on the Intel Skylake and
ThunderX2 CPUs.

The paper plots, per matrix, the scaling efficiency ``t(1) / (p * t(p))`` against the
OpenMP thread count, observing near-ideal scaling up to the physical core count
(48 on Skylake, 56 on ThunderX2, with 26.9x and 43.9x geometric-mean speedups
respectively) and a slowdown when hyperthreads are used. The same curves are produced
here from the CPU strong-scaling model applied to the memory-traffic counters of
Algorithm 1 — the hardware substitution documented in DESIGN.md.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..mis.kk import kk_mis2
from ..graph.suite import paper_statistics
from ..parallel.costmodel import scale_traffic, scaling_efficiency, strong_scaling_times
from ..parallel.machine import device
from ..util.tables import Table, geometric_mean
from .config import BenchConfig, cached_suite_graph
from .experiment import Experiment, matrix_plan, register_experiment

__all__ = [
    "ScalingRow", "run_scaling", "scaling_table", "DEFAULT_THREAD_COUNTS",
    "FIG4_EXPERIMENT", "FIG5_EXPERIMENT",
]

#: Thread counts plotted for each CPU (through 2x the physical cores = all hyperthreads).
DEFAULT_THREAD_COUNTS: Dict[str, Sequence[int]] = {
    "skylake": (1, 2, 4, 8, 16, 24, 32, 48, 64, 96),
    "tx2": (1, 2, 4, 8, 16, 28, 42, 56, 84, 112),
}


@dataclass(frozen=True)
class ScalingRow:
    """Strong-scaling curve of one matrix on one CPU."""

    matrix: str
    device_key: str
    thread_counts: Sequence[int]
    #: Modelled time (seconds) at each thread count.
    times: Sequence[float]
    #: Scaling efficiency t(1) / (p * t(p)) at each thread count.
    efficiency: Sequence[float]

    def speedup_at(self, threads: int) -> float:
        """Speedup over one thread at the given thread count."""
        idx = list(self.thread_counts).index(threads)
        return self.times[0] / self.times[idx]


def scaling_task(
    name: str,
    config: BenchConfig,
    device_key: str = "skylake",
    thread_counts: Optional[Tuple[int, ...]] = None,
    extrapolate_to_paper_size: bool = True,
) -> ScalingRow:
    """Per-matrix map stage: the modelled strong-scaling curve on one CPU."""
    spec = device(device_key)
    counts = tuple(thread_counts or DEFAULT_THREAD_COUNTS[device_key])
    graph = cached_suite_graph(name, config.scale, config.seed, config.mtx_dir)
    result = kk_mis2(graph, seed=config.seed)
    traffic = result.traffic
    if extrapolate_to_paper_size:
        record = paper_statistics(name)
        traffic = scale_traffic(traffic, record.paper_num_vertices / max(1, graph.num_vertices))
    times = strong_scaling_times(traffic, spec, counts)
    eff = scaling_efficiency(traffic, spec, counts)
    return ScalingRow(
        matrix=name,
        device_key=device_key,
        thread_counts=counts,
        times=tuple(times),
        efficiency=tuple(eff),
    )


def _render(rows: List[ScalingRow]) -> str:
    return scaling_table(rows).render()


FIG4_EXPERIMENT = register_experiment(
    Experiment(
        name="fig4",
        title="Fig. 4: strong-scaling efficiency on the Intel Skylake CPU",
        plan=matrix_plan,
        task=functools.partial(scaling_task, device_key="skylake"),
        render=_render,
        key_field="matrix",
        deterministic_fields=("thread_counts", "times", "efficiency"),
    )
)

FIG5_EXPERIMENT = register_experiment(
    Experiment(
        name="fig5",
        title="Fig. 5: strong-scaling efficiency on the Marvell ThunderX2 CPU",
        plan=matrix_plan,
        task=functools.partial(scaling_task, device_key="tx2"),
        render=_render,
        key_field="matrix",
        deterministic_fields=("thread_counts", "times", "efficiency"),
    )
)


def run_scaling(
    device_key: str,
    config: BenchConfig = BenchConfig(),
    thread_counts: "Sequence[int] | None" = None,
    extrapolate_to_paper_size: bool = True,
) -> List[ScalingRow]:
    """Compute strong-scaling curves for every suite matrix on ``device_key``."""
    spec = device(device_key)
    if spec.kind != "cpu":
        raise ValueError("scaling figures apply to the CPU devices (skylake, tx2)")
    experiment = FIG4_EXPERIMENT if device_key == "skylake" else FIG5_EXPERIMENT
    task = None
    if thread_counts is not None or not extrapolate_to_paper_size:
        task = functools.partial(
            scaling_task,
            device_key=device_key,
            thread_counts=tuple(thread_counts) if thread_counts is not None else None,
            extrapolate_to_paper_size=extrapolate_to_paper_size,
        )
    return experiment.run(config, task=task).rows


def scaling_table(rows: List[ScalingRow]) -> Table:
    """Format the scaling curves (efficiency per thread count) plus the geometric-mean
    speedup at the physical core count."""
    if not rows:
        raise ValueError("no scaling rows")
    counts = rows[0].thread_counts
    device_key = rows[0].device_key
    spec = device(device_key)
    table = Table(
        ["matrix"] + [f"{c} thr" for c in counts],
        title=f"Fig. {'4' if device_key == 'skylake' else '5'}: strong-scaling efficiency on {spec.name}",
    )
    for row in rows:
        table.add_row([row.matrix] + [round(e, 3) for e in row.efficiency])
    cores = spec.physical_cores
    if cores in counts:
        mean_speedup = geometric_mean([row.speedup_at(cores) for row in rows])
        table.add_row(
            [f"geomean speedup @{cores}"] + [round(mean_speedup, 1) if c == cores else "-" for c in counts]
        )
    return table
