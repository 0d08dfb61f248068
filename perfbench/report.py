"""Turn measurement passes into the benchmark's metrics and its printed report.

End-to-end metrics come from an untraced pass. ``main_ms`` and ``side_ms``
are each workload's two headline latencies (see ``ROLES``); on ``amg`` they
and ``setup_s`` are reported at the host-speed probe's nominal speed (see
``pace.py``). The report prints them as measured too, beside every metric
under its own name. Per-layer metrics come from a traced pass; the tracing
overhead is the traced value of each end-to-end timing minus the untraced
one, both measured in the same process.
"""

from __future__ import annotations

import json
import os
import platform
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np
import scipy

from tracing import NullTracer, Span, Tracer, self_times
from workloads import FULL, WORKLOADS, Run, Sizes, measure

__all__ = ["declared", "execute"]

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``"end_to_end"`` or ``"per_layer"`` metrics
    ``BENCHMARK.json`` declares, in its order."""
    return {m["name"]: m["unit"] for m in json.loads(CONTRACT.read_text())[kind]}

#: What ``main_ms`` and ``side_ms`` are on each workload:
#: (sample name, percentile, factor to milliseconds, description).
ROLES: Dict[str, Dict[str, Tuple[str, float, float, str]]] = {
    "amg": {
        "main_ms": ("solve_s", 50, 1e3, "median PCG solve (solve_s)"),
        "side_ms": ("iter_ms", 50, 1.0, "median time per PCG iteration"),
    },
    "cluster_gs": {
        "main_ms": ("solve_s", 50, 1e3, "median GMRES solve (solve_s)"),
        "side_ms": ("iter_ms", 50, 1.0, "median time per GMRES iteration"),
    },
    "partitioned": {
        "main_ms": ("mis2_ms", 50, 1.0, "mis2_p50_ms"),
        "side_ms": ("color_ms", 50, 1.0, "color_p50_ms"),
    },
    # The read percentiles sit at the knee of the writer's load: across seeds
    # of the same code read_p99_ms spread 21-32% and read_p50_ms more, past
    # any bound, so they are reported by name but not gated.
    "service": {
        "main_ms": ("mutate_ms", 50, 1.0, "mutate_p50_ms"),
        "side_ms": ("aggregate_ms", 50, 1.0, "aggregate_p50_ms"),
    },
}

#: The metrics printed under their own names: (name, unit, sample, percentile).
NAMED: Dict[str, List[Tuple[str, str, str, float]]] = {
    "amg": [
        ("setup_s", "s", "setup_s", 50),
        ("solve_s", "s", "solve_s", 50),
        ("solve_iters", "count", "solve_iters", 50),
        ("iter_ms", "ms", "iter_ms", 50),
    ],
    "partitioned": [
        ("setup_s", "s", "setup_s", 50),
        ("mis2_p50_ms", "ms", "mis2_ms", 50),
        ("color_p50_ms", "ms", "color_ms", 50),
    ],
    "service": [
        ("setup_s", "s", "setup_s", 50),
        ("mutate_p50_ms", "ms", "mutate_ms", 50),
        ("query_p50_ms", "ms", "query_ms", 50),
        ("read_p50_ms", "ms", "read_ms", 50),
        ("read_p99_ms", "ms", "read_ms", 99),
        ("aggregate_p50_ms", "ms", "aggregate_ms", 50),
    ],
}
NAMED["cluster_gs"] = NAMED["amg"]

#: Tracing overhead: end-to-end timing -> the per-layer metric reporting it.
OVERHEADS = {
    "setup_s": "trace.setup_overhead_s",
    "main_ms": "trace.main_overhead_ms",
    "side_ms": "trace.side_overhead_ms",
}

LAYERS = ("graph", "mis", "coloring", "coarsen", "solvers", "gs", "partition", "parallel", "transport", "service")

#: The nominal time of the host-speed probe (``pace.Pace``) on each workload
#: that times one: its end-to-end timings are reported at the host speed at
#: which one probe takes this long.
PACE_NOMINAL_MS = {"amg": 12.0, "partitioned": 7.0}


def percentile(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def end_to_end(workload: str, run: Run, paced: bool = True) -> Dict[str, float]:
    """One pass's end-to-end metrics, taken over the whole pass. A pass that
    timed the host-speed probe (``amg``, ``partitioned``) has its timings,
    when ``paced``, scaled to the host speed at which the median probe takes
    ``PACE_NOMINAL_MS``."""
    metrics = {"setup_s": percentile(run.samples["setup_s"], 50)}
    for name, (sample, q, factor, _) in ROLES[workload].items():
        metrics[name] = factor * percentile(run.samples[sample], q)
    if paced and run.samples["pace_ms"]:
        scale = PACE_NOMINAL_MS[workload] / percentile(run.samples["pace_ms"], 50)
        metrics = {name: value * scale for name, value in metrics.items()}
    metrics["peak_rss_mb"] = run.peak_rss_mb
    return metrics


# ---------------------------------------------------------------- per layer
def layer_metrics(spans: List[Span], run: Run) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    A span's value is summed per operation (one set-up or one request); the
    metric is the mean over the operations that contain the span, taken over
    the measured loop when the span occurs there and over the set-ups
    otherwise. Service counters are totals over the traced loop.
    """
    own = self_times(spans)
    phase = {s.op: s.phase for s in spans if s.parent is None}

    def grouped(names: Iterable[str], value: Callable[[Span], float]) -> Dict[int, float]:
        names = set(names)
        by_op: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s.name in names:
                by_op[s.op] += value(s)
        loop = {op: v for op, v in by_op.items() if phase.get(op) == "loop"}
        return loop or dict(by_op)

    def per_op(names: Iterable[str], value: Callable[[Span], float]) -> float:
        values = list(grouped(names, value).values())
        return sum(values) / len(values) if values else 0.0

    def duration(s: Span) -> float:
        return s.duration

    def self_s(s: Span) -> float:
        return own[s.sid]

    def one(s: Span) -> float:
        return 1.0

    def attr(key: str) -> Callable[[Span], float]:
        return lambda s: float(s.attrs.get(key, 0.0))

    kk, color = ("mis.kk_mis2",), ("coloring.greedy_color",)
    calls = kk + color
    # Partitioned calls carry PartitionStats and socket meters as attributes.
    metered = [s for s in spans if s.name in calls and s.phase == "loop" and "supersteps" in s.attrs]
    wire = sum(s.attrs["bytes_sent"] + s.attrs["bytes_received"] for s in metered)
    logical = sum(s.attrs["resident_bytes"] + s.attrs["superstep_bytes"] for s in metered)
    mis2_calls = {s.op: s.duration for s in metered if s.parent is None and s.name in kk}
    layout_in_mis2 = sum(s.duration for s in spans if s.name == "partition.layout" and s.op in mis2_calls)
    aggregations: Dict[int, Tuple[float, float]] = {}
    for s in spans:
        if s.name == "coarsen.mis2_aggregation":
            level0 = aggregations.get(s.op, (-1.0, 0.0))
            if s.attrs.get("vertices", 0.0) > level0[0]:
                aggregations[s.op] = (s.attrs["vertices"], s.attrs["aggregates"])
    writes = [s for s in spans if s.name == "service.write" and s.phase == "loop"]
    repairs = [s for s in spans if s.name == "service.repair" and s.phase == "loop"]
    stats = run.service_stats
    queries = stats.get("queries", 0)
    repaired = stats.get("repairs", 0)
    fallbacks = stats.get("repair_fallbacks", 0)

    m = {
        "graph.from_scipy_s": per_op(("graph.from_scipy",), duration),
        "graph.from_edges_s": per_op(("graph.from_edges",), duration),
        "mis.kk_mis2_calls": per_op(kk, one),
        "mis.kk_mis2_s": per_op(kk, self_s),
        "mis.iterations": per_op(kk, attr("iterations")),
        "coloring.greedy_color_s": per_op(color, self_s),
        "coloring.rounds": per_op(color, attr("rounds")),
        "coloring.colors": per_op(color, attr("colors")),
        "coarsen.mis2_aggregation_s": per_op(("coarsen.mis2_aggregation",), self_s),
        "coarsen.aggregates": float(np.mean([a for _, a in aggregations.values()])) if aggregations else 0.0,
        "coarsen.prolongation_s": per_op(("coarsen.prolongation",), duration),
        "coarsen.galerkin_s": per_op(("coarsen.galerkin",), duration),
        "coarsen.coarse_graph_s": per_op(("coarsen.coarse_graph",), duration),
        "solvers.setup_self_s": per_op(("solvers.build_hierarchy",), self_s),
        "solvers.levels": per_op(("solvers.build_hierarchy",), attr("levels")),
        "solvers.operator_complexity": per_op(("solvers.build_hierarchy",), attr("operator_complexity")),
        "solvers.vcycle_calls": per_op(("solvers.vcycle",), one),
        "solvers.vcycle_s": per_op(("solvers.vcycle",), duration),
        "solvers.krylov_self_s": per_op(("solvers.solve", "solvers.gmres"), self_s),
        "gs.setup_self_s": per_op(("gs.setup",), self_s),
        "gs.apply_calls": per_op(("gs.apply",), one),
        "gs.apply_s": per_op(("gs.apply",), duration),
        "gs.colors": per_op(("gs.setup",), attr("colors")),
        "gs.max_cluster_size": per_op(("gs.setup",), attr("max_cluster_size")),
        "partition.layout_calls": per_op(("partition.layout",), one),
        "partition.layout_s": per_op(("partition.layout",), duration),
        "partition.layout_share": layout_in_mis2 / sum(mis2_calls.values()) if mis2_calls else 0.0,
        "partition.cut_edges": per_op(("partition.layout",), attr("cut_edges")),
        "partition.halo_vertices": per_op(("partition.layout",), attr("halo_vertices")),
        "partition.imbalance": per_op(("partition.layout",), attr("imbalance")),
        "transport.wire_ratio": wire / logical if logical else 0.0,
        "transport.cluster_start_s": per_op(("transport.cluster_start",), duration),
        "service.hit_ratio": stats.get("cache_hits", 0) / queries if queries else 0.0,
        "service.repair_ratio": repaired / (repaired + fallbacks) if repaired + fallbacks else 0.0,
        "service.repair_s": sum(s.duration for s in repairs) / len(writes) if writes else 0.0,
        "service.mutate_self_s": per_op(("service.write",), self_s),
        "service.write_busy_share": sum(s.duration for s in writes) / run.loop_s if writes and run.loop_s else 0.0,
        "service.aggregate_s": per_op(("service.aggregate",), duration),
        "service.reads_late_share": mean(run.samples["read_late"]),
        "service.reads_max_late_ms": max(run.samples["read_lateness_ms"], default=0.0),
    }
    for key in ("supersteps", "resident_bytes", "superstep_bytes", "max_superstep_bytes",
                "compute_s", "exchange_s", "idle_s"):
        m[f"parallel.{key}"] = per_op(calls, attr(key))
    for key in ("bytes_sent", "bytes_received", "messages"):
        m[f"transport.{key}"] = per_op(calls, attr(key))
    for key in ("queries", "cache_hits", "coalesced", "repairs", "repair_fallbacks", "full_recomputes", "repair_touched"):
        m[f"service.{key}"] = float(stats.get(key, 0))
    return m


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per layer (the span name's prefix) over a traced pass."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name.split(".", 1)[0]] += own[s.sid]
    return totals


# ------------------------------------------------------------------ report
def _named_rows(workload: str, run: Run) -> List[Tuple[str, float, str, int]]:
    rows = [
        (name, percentile(run.samples[sample], q), unit, len(run.samples[sample]))
        for name, unit, sample, q in NAMED[workload]
    ]
    rows.append(("peak_rss_mb", run.peak_rss_mb, "MB", 1))
    ratio = run.failed / run.attempted if run.attempted else 1.0
    rows.append(("failed_ratio", ratio, "fraction", run.attempted))
    if workload == "service":
        late = run.samples["read_late"]
        rows.append(("reads_late_share", mean(late), "fraction", len(late)))
    return rows


def render(workload: str, seed: int, seconds: float, base: Run, traced=None, spans=None, layer=None, timings=None) -> str:
    out = [
        f"perfbench {workload}: seed {seed}, {seconds:g} s measured, trace {int(traced is not None)}",
        f"  why: {WORKLOADS[workload].why}",
        f"  nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"NumPy {np.__version__}, SciPy {scipy.__version__}",
        "  inputs: " + ", ".join(f"{k}={v}" for k, v in base.inputs.items()),
        f"  loop: {base.loop_s:.2f} s, {base.attempted} operations attempted, {base.failed} failed",
        f"  {'metric':<20}{'value':>14}  {'unit':<9}{'samples':>8}",
    ]
    out += [f"  {n:<20}{v:>14.6g}  {u:<9}{c:>8}" for n, v, u, c in _named_rows(workload, base)]
    pace = base.samples["pace_ms"]
    if pace:
        out.append(
            f"  JSON timings at the host speed where the probe takes {PACE_NOMINAL_MS[workload]:g} ms; "
            f"here its median took {percentile(pace, 50):.4g} ms ({len(pace)} probes)"
        )
    out.append(f"  {'end-to-end':<20}{'JSON':>14}{'wall clock':>14}  what")
    paced, wall = end_to_end(workload, base), end_to_end(workload, base, paced=False)
    roles = {"setup_s": "median set-up", "peak_rss_mb": "at the loop's end"}
    roles.update((name, role[3]) for name, role in ROLES[workload].items())
    out += [f"  {n:<20}{paced[n]:>14.6g}{wall[n]:>14.6g}  {roles[n]}" for n in paced]
    if traced is not None:
        out.append(f"  {'end-to-end timing':<20}{'untraced':>12}{'traced':>12}{'overhead':>12}")
        for name, (a, b) in timings.items():
            out.append(f"  {name:<20}{a:>12.6g}{b:>12.6g}{b - a:>12.4g}")
        selfs = layer_self_times(spans)
        total = sum(selfs.values()) or 1.0
        out.append(f"  {'layer self time':<20}{'seconds':>12}{'share':>12}   (traced pass, all operations)")
        for name in LAYERS:
            out.append(f"  {name:<20}{selfs.get(name, 0.0):>12.4f}{selfs.get(name, 0.0) / total:>12.3f}")
        out.append(f"  {'per-layer metric':<32}{'value':>14}  unit")
        out += [f"  {n:<32}{layer[n]:>14.6g}  {unit}" for n, unit in declared("per_layer").items()]
    for error in base.errors + (traced.errors if traced is not None else []):
        out.append("  FAILED: " + error.strip().replace("\n", "\n    "))
    return "\n".join(out)


def execute(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL):
    """Run one workload; returns ``(result, record, spans, report)``.

    ``result`` is the contract's JSON object. With ``trace``, an untraced
    pass and a traced pass each measure half of ``seconds``.
    """
    if not trace:
        base = measure(workload, seed, seconds, NullTracer(), sizes)
        runs, spans, layer = [base], [], None
        values = end_to_end(workload, base)
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in declared("end_to_end").items()}
        report = render(workload, seed, seconds, base)
    else:
        base = measure(workload, seed, seconds / 2, NullTracer(), sizes)
        tracer = Tracer()
        traced = measure(workload, seed, seconds / 2, tracer, sizes)
        runs, spans = [base, traced], tracer.finished()
        layer = layer_metrics(spans, traced)
        untraced_e2e, traced_e2e = end_to_end(workload, base), end_to_end(workload, traced)
        timings = {name: (untraced_e2e[name], traced_e2e[name]) for name in OVERHEADS}
        for name, (untraced_value, traced_value) in timings.items():
            layer[OVERHEADS[name]] = traced_value - untraced_value
        metrics = {n: {"value": layer[n], "unit": unit} for n, unit in declared("per_layer").items()}
        report = render(workload, seed, seconds, base, traced, spans, layer, timings)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "nproc": os.cpu_count(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "inputs": base.inputs,
        "named": [
            {"name": n, "value": v, "unit": u, "samples": c} for n, v, u, c in _named_rows(workload, base)
        ],
        "sample_counts": {k: len(v) for k, v in base.samples.items()},
        "pace_ms_p50": percentile(base.samples["pace_ms"], 50),
        "wall_clock": end_to_end(workload, base, paced=False),
        "result": result,
    }
    return result, record, spans, report
