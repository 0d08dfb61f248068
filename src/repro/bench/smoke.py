"""Smoke experiment: a fast end-to-end sanity check of every kernel layer.

Used by CI (``python -m repro.bench smoke``, its ``--jobs 2`` pooled run, and
``smoke --parts 4`` on each backend, whose two records ``compare`` gates):
each work unit builds a small structured graph, runs MIS-2, greedy coloring,
MIS-2 aggregation and the device cost model, *verifies* every result, and
records the deterministic measurables. An invalid result raises, failing the CI job;
the registered deterministic fields make the smoke experiment a meaningful
(and cheap) determinism probe across pool widths and backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..util.tables import Table
from .config import BenchConfig
from .experiment import Experiment, register_experiment

__all__ = ["SmokeRow", "smoke_task", "smoke_table", "SMOKE_EXPERIMENT"]

#: Work units: (generator kind, nx, ny, nz) for two small structured graphs.
SMOKE_UNITS: Tuple[Tuple[str, int, int, int], ...] = (
    ("laplace3d", 10, 10, 10),
    ("elasticity3d", 6, 6, 6),
)


@dataclass(frozen=True)
class SmokeRow:
    """Verified kernel-stack results for one smoke graph."""

    graph: str
    num_vertices: int
    mis2_size: int
    iterations: int
    num_colors: int
    rounds: int
    num_aggregates: int
    predicted_v100_us: float
    #: Intra-graph partition count (1 = unpartitioned run).
    parts: int = 1
    #: Vertices adjacent to another part in the partition layout.
    boundary_vertices: int = 0
    #: Ghost-exchange supersteps executed by the partitioned MIS + coloring runs.
    ghost_supersteps: int = 0
    #: Logical bytes shipped once at session open by the partitioned MIS +
    #: coloring runs (per-part CSR, index maps and static parameters).
    resident_bytes: int = 0
    #: Logical bytes shipped across all supersteps, both directions (halo
    #: values and scalars out, boundary worklist values and sizes back).
    superstep_bytes: int = 0
    #: Largest single-superstep shipment across the partitioned runs.
    max_superstep_bytes: int = 0
    #: ``resident_bytes + superstep_bytes`` — everything the run shipped. This
    #: (with ``max_superstep_bytes``) is the gated deterministic count, while
    #: the one-time/per-superstep breakdown above stays a row-level detail.
    total_shipped_bytes: int = 0
    #: Coordinator wall-clock the partitioned MIS + coloring runs spent
    #: computing between session calls. Like the two meters below this is
    #: ``perf_counter``-based and machine-varying — the timing triple is
    #: deliberately NOT a deterministic field.
    compute_seconds: float = 0.0
    #: Wall-clock spent preparing/shipping phase deltas across those runs.
    exchange_seconds: float = 0.0
    #: Wall-clock the coordinator spent blocked on phase results.
    idle_seconds: float = 0.0


def _plan(config: BenchConfig) -> List[Tuple[str, int, int, int]]:
    return list(SMOKE_UNITS)


def smoke_task(unit: Tuple[str, int, int, int], config: BenchConfig) -> SmokeRow:
    """Run and verify MIS-2 + coloring + aggregation + cost model on one graph."""
    import numpy as np

    from ..coarsen.mis2_agg import mis2_aggregation
    from ..coloring.greedy import greedy_color
    from ..coloring.verify import is_valid_coloring
    from ..graph.generators import elasticity3d, laplace3d
    from ..mis.kk import kk_mis2
    from ..mis.verify import verify_mis
    from ..parallel.costmodel import predict_device_time

    kind, nx, ny, nz = unit
    generator = laplace3d if kind == "laplace3d" else elasticity3d
    graph = generator(nx, ny, nz)
    label = f"{kind}({nx},{ny},{nz})"

    mis = kk_mis2(graph, seed=config.seed)
    if not verify_mis(graph, mis.in_set, k=2):
        raise RuntimeError(f"smoke check failed: kk_mis2 produced an invalid MIS-2 on {label}")
    coloring = greedy_color(graph)
    if not is_valid_coloring(graph, coloring.colors, distance=1):
        raise RuntimeError(
            f"smoke check failed: greedy_color produced an invalid coloring on {label}"
        )
    agg = mis2_aggregation(graph, mis=mis, seed=config.seed)
    if not agg.is_complete():
        raise RuntimeError(
            f"smoke check failed: mis2_aggregation left vertices unaggregated on {label}"
        )
    predicted = predict_device_time(mis.traffic, "v100")
    if not np.isfinite(predicted) or predicted <= 0:
        raise RuntimeError(
            f"smoke check failed: cost model produced a non-positive time on {label}"
        )
    boundary_vertices = 0
    ghost_supersteps = 0
    resident_bytes = 0
    superstep_bytes = 0
    max_superstep_bytes = 0
    compute_seconds = 0.0
    exchange_seconds = 0.0
    idle_seconds = 0.0
    if config.parts is not None:
        # Partition-parallel runs must be bit-identical to the unpartitioned
        # results computed above — the intra-graph sharding contract.
        backend = config.backend or "numpy"
        pmis = kk_mis2(graph, seed=config.seed, partitions=config.parts, backend=backend)
        if not (np.array_equal(pmis.in_set, mis.in_set) and pmis.iterations == mis.iterations):
            raise RuntimeError(
                f"smoke check failed: partitioned MIS-2 diverged from the reference on {label}"
            )
        pcoloring = greedy_color(graph, partitions=config.parts, backend=backend)
        if not (
            np.array_equal(pcoloring.colors, coloring.colors)
            and pcoloring.rounds == coloring.rounds
        ):
            raise RuntimeError(
                f"smoke check failed: partitioned coloring diverged from the reference on {label}"
            )
        # pmis is already verified identical to mis, so reuse it for phase 1
        # (as the unpartitioned path reuses mis) — only the phase-2 sub-MIS
        # still runs partitioned.
        pagg = mis2_aggregation(
            graph, mis=pmis, seed=config.seed, partitions=config.parts, backend=backend
        )
        if not (
            np.array_equal(pagg.labels, agg.labels)
            and pagg.num_aggregates == agg.num_aggregates
        ):
            raise RuntimeError(
                f"smoke check failed: partitioned aggregation diverged from the reference on {label}"
            )
        boundary_vertices = pmis.partition_stats.boundary_vertices
        pstats = (pmis.partition_stats, pcoloring.partition_stats)
        ghost_supersteps = sum(s.supersteps for s in pstats)
        resident_bytes = sum(s.resident_bytes for s in pstats)
        superstep_bytes = sum(s.superstep_bytes for s in pstats)
        max_superstep_bytes = max(s.max_superstep_bytes for s in pstats)
        compute_seconds = sum(s.compute_seconds for s in pstats)
        exchange_seconds = sum(s.exchange_seconds for s in pstats)
        idle_seconds = sum(s.idle_seconds for s in pstats)
    return SmokeRow(
        graph=label,
        num_vertices=graph.num_vertices,
        mis2_size=int(mis.in_set.size),
        iterations=mis.iterations,
        num_colors=coloring.num_colors,
        rounds=coloring.rounds,
        num_aggregates=agg.num_aggregates,
        predicted_v100_us=predicted * 1e6,
        parts=config.parts if config.parts is not None else 1,
        boundary_vertices=boundary_vertices,
        ghost_supersteps=ghost_supersteps,
        resident_bytes=resident_bytes,
        superstep_bytes=superstep_bytes,
        max_superstep_bytes=max_superstep_bytes,
        total_shipped_bytes=resident_bytes + superstep_bytes,
        compute_seconds=compute_seconds,
        exchange_seconds=exchange_seconds,
        idle_seconds=idle_seconds,
    )


def smoke_table(rows: List[SmokeRow]) -> Table:
    """Format the smoke rows as the CI sanity-check table."""
    partitioned = any(row.parts > 1 for row in rows)
    columns = ["graph", "|V|", "|MIS-2|", "iters", "colors", "rounds", "aggregates",
               "V100 (us)"]
    if partitioned:
        columns += ["parts", "boundary", "exchanges", "resident B", "step B",
                    "max step B", "compute ms", "exchange ms", "idle ms"]
    title = "smoke check: OK (all kernel layers verified"
    title += "; partitioned runs bit-identical)" if partitioned else ")"
    table = Table(columns, title=title)
    for row in rows:
        cells = [row.graph, row.num_vertices, row.mis2_size, row.iterations,
                 row.num_colors, row.rounds, row.num_aggregates,
                 round(row.predicted_v100_us, 1)]
        if partitioned:
            cells += [row.parts, row.boundary_vertices, row.ghost_supersteps,
                      row.resident_bytes, row.superstep_bytes, row.max_superstep_bytes,
                      round(row.compute_seconds * 1e3, 2),
                      round(row.exchange_seconds * 1e3, 2),
                      round(row.idle_seconds * 1e3, 2)]
        table.add_row(cells)
    return table


def _render(rows: List[SmokeRow]) -> str:
    return smoke_table(rows).render()


SMOKE_EXPERIMENT = register_experiment(
    Experiment(
        name="smoke",
        title="Smoke: fast end-to-end sanity check of every kernel layer (CI)",
        plan=_plan,
        task=smoke_task,
        render=_render,
        key_field="graph",
        deterministic_fields=(
            "num_vertices", "mis2_size", "iterations", "num_colors", "rounds",
            "num_aggregates", "parts", "boundary_vertices", "ghost_supersteps",
            "total_shipped_bytes", "max_superstep_bytes",
        ),
        parts_aware=True,
    )
)

