"""The benchmark's four workloads, written against the library's public API.

Each workload function takes a :class:`Run`, the seed, the measured seconds and
the input :class:`Sizes`; it sets up several times, then repeats its requests
until the seconds are up, and checks every answer outside the timed region.
An operation that raises or fails its check counts against ``failed``.
``amg`` also times its host-speed probe (``pace.py``) after every solve.

Only default modes are used: no ``resident=``, ``changed_deltas=`` or
``overlap=`` argument, and nothing from ``repro.bench``. ``aggregation_fn`` is
passed explicitly so that the traced run can wrap it; the untraced run passes
the same function unwrapped.
"""

from __future__ import annotations

import resource
import threading
import traceback
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

import repro.coarsen.mis2_agg as mis2_agg_module
import repro.gs.cluster as gs_cluster_module
import repro.parallel.partitioned as partitioned_module
import repro.service.core as service_core_module
import repro.service.repair as service_repair_module
import repro.solvers.multigrid as multigrid_module
from repro.coarsen import mis2_aggregation
from repro.coloring import greedy_color, is_valid_coloring
from repro.graph import from_scipy, laplace3d, laplace3d_matrix
from repro.gs import ClusterMulticolorGaussSeidel
from repro.mis import kk_mis2, verify_mis
from repro.parallel import DistributedBackend, shutdown_rank_clusters
from repro.service import GraphService, mis_keys, ordered_color, serial_mis2_mask
from repro.solvers import build_hierarchy, gmres

from pace import Pace

__all__ = ["Sizes", "FULL", "TINY", "Run", "WORKLOADS", "measure"]

#: Relative residual every Krylov solve must reach (Tables V and VI use 1e-8).
TOL = 1e-8
#: ``partitioned``: parts per call and rank processes.
PARTS = 4
RANKS = 2
#: ``service``: open-loop rates, and every how many writes ``aggregate`` runs.
WRITE_PERIOD_S = 0.25
READ_PERIOD_S = 0.01
AGGREGATE_EVERY = 10
#: ``service``: odd (edge-inserted) epochs checked against the serial references.
REFERENCE_EPOCHS = 3
#: A read sent this much after its due time counts as late.
LATE_S = 1e-3
GRAPH = "g"
#: ``partitioned``: host-speed probes (see ``pace.py``) after each call.
PACE_CALLS = 5


@dataclass(frozen=True)
class Sizes:
    """Grid sides of each workload's input, and the set-ups a run makes before
    its measured loop (and again after it)."""

    amg_grid: int = 50
    gs_grid: int = 40
    partitioned_grid: int = 40
    service_grid: int = 30
    setups: int = 2


FULL = Sizes()
#: Inputs small enough for the self-tests.
TINY = Sizes(amg_grid=8, gs_grid=8, partitioned_grid=8, service_grid=6, setups=1)


class Run:
    """What one measurement pass produced: samples, inputs and check counts."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = defaultdict(list)  # guarded-by: _lock
        self.inputs: Dict[str, object] = {}
        self.attempted = 0  # guarded-by: _lock
        self.failed = 0  # guarded-by: _lock
        self.errors: List[str] = []  # guarded-by: _lock
        self.peak_rss_mb = 0.0
        #: Wall-clock seconds of the measured loop.
        self.loop_s = 0.0
        #: ``service``: ``stats_snapshot()`` deltas over the measured loop.
        self.service_stats: Dict[str, int] = {}
        self._lock = threading.Lock()

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(float(value))

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a false ``ok`` counts as failed."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(what)
        return bool(ok)

    def raised(self, what: str) -> None:
        self.check(False, f"{what} raised:\n{traceback.format_exc()}")

    def probe(self, pace: Pace, calls: int = 1) -> None:
        """Time the host-speed probe ``calls`` times, between requests."""
        for _ in range(calls):
            self.sample("pace_ms", 1e3 * pace())

    def end_loop(self, started: float) -> None:
        """Close the measured loop: its length and the process's peak RSS so far
        (rank processes are separate processes and are not counted)."""
        self.loop_s = perf_counter() - started
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(run: Run, name: str, call: Callable, attrs: Optional[Callable] = None):
    """One operation inside span ``name``: ``(result, seconds)``, or ``None`` when
    it raised (counted as failed)."""
    try:
        with run.tracer.span(name) as span:
            start = perf_counter()
            result = call()
            seconds = perf_counter() - start
            if attrs is not None:
                span.attrs.update(attrs(result))
    except Exception:  # an operation that raises is a failed operation; the run goes on
        run.raised(name)
        return None
    return result, seconds


def until(seconds: float) -> Iterator[None]:
    """Yield once, then again until ``seconds`` have passed."""
    deadline = perf_counter() + seconds
    yield
    while perf_counter() < deadline:
        yield


def set_up(sizes: Sizes, setup: Callable, release: Optional[Callable] = None):
    """``sizes.setups`` set-ups in a row; returns what the last one built.

    ``setup()`` times and checks one set-up and returns what it built, or
    ``None`` when it failed; ``release`` frees a result that is not kept.
    """
    kept = None
    for _ in range(sizes.setups):
        if kept is not None and release is not None:
            release(kept)
        kept = None  # drop the old result before building the next one
        kept = setup()
    return kept


def set_up_again(run: Run, sizes: Sizes, setup: Callable, release: Optional[Callable] = None) -> None:
    """As many set-ups again after the measured loop.

    The machine's speed drifts over seconds, so ``setup_s`` samples both ends
    of the run rather than only its first seconds.
    """
    run.tracer.phase = "setup"
    for _ in range(sizes.setups):
        kept = setup()
        if kept is not None and release is not None:
            release(kept)


# ------------------------------------------------------------ span attributes
def _kernel_attrs(result) -> Dict[str, float]:
    if hasattr(result, "in_mask"):
        return {"iterations": result.iterations}
    return {"rounds": result.rounds, "colors": result.num_colors}


def _layout_attrs(layout) -> Dict[str, float]:
    owned = np.array([part.num_owned for part in layout.parts], dtype=np.float64)
    return {
        "cut_edges": layout.cut_edges,
        "halo_vertices": layout.halo_vertices,
        "imbalance": float(owned.max() / owned.mean()) if owned.size else 0.0,
    }


def _aggregation_attrs(aggregation) -> Dict[str, float]:
    return {"vertices": aggregation.num_vertices, "aggregates": aggregation.num_aggregates}


def trace_targets():
    """The module attributes the traced run wraps, each at the name its caller binds."""
    return [
        (multigrid_module, "from_scipy", "graph.from_scipy", None),
        (multigrid_module, "smoothed_prolongation", "coarsen.prolongation", None),
        (multigrid_module, "galerkin_operator", "coarsen.galerkin", None),
        (mis2_agg_module, "kk_mis2", "mis.kk_mis2", _kernel_attrs),
        (gs_cluster_module, "from_scipy", "graph.from_scipy", None),
        (gs_cluster_module, "coarse_graph", "coarsen.coarse_graph", None),
        (gs_cluster_module, "greedy_color", "coloring.greedy_color", _kernel_attrs),
        (partitioned_module, "build_partition_layout", "partition.layout", _layout_attrs),
        (service_core_module, "from_edges", "graph.from_edges", None),
        (service_repair_module, "repair_mis2", "service.repair", None),
        (service_repair_module, "repair_ordered_color", "service.repair", None),
    ]


# ------------------------------------------------------------------ solvers
def _check_solve(run: Run, A, b: np.ndarray, result, seconds: float) -> None:
    relres = float(np.linalg.norm(b - A @ result.x) / np.linalg.norm(b))
    ok = result.converged and relres <= TOL
    if run.check(ok, f"solve: converged={result.converged}, relative residual {relres:.3e}"):
        run.sample("solve_s", seconds)
        run.sample("solve_iters", result.iterations)
        run.sample("iter_ms", 1e3 * seconds / max(result.iterations, 1))


def amg(run: Run, seed: int, seconds: float, sizes: Sizes) -> None:
    tr = run.tracer
    side = sizes.amg_grid
    A = laplace3d_matrix(side, side, side)
    run.inputs.update(rows=A.shape[0], nnz=int(A.nnz))
    aggregate = tr.wrap("coarsen.mis2_aggregation", mis2_aggregation, _aggregation_attrs)

    def hierarchy_attrs(h) -> Dict[str, float]:
        return {"levels": h.num_levels, "operator_complexity": h.operator_complexity()}

    def setup():
        got = timed(
            run, "solvers.build_hierarchy",
            lambda: build_hierarchy(A, aggregation_fn=aggregate), hierarchy_attrs,
        )
        if got is None:
            return None
        hierarchy, setup_s = got
        complete = all(
            level.aggregation.is_complete()
            for level in hierarchy.levels
            if level.aggregation is not None
        )
        if run.check(complete, "build_hierarchy: incomplete aggregation"):
            run.sample("setup_s", setup_s)
        return hierarchy

    hierarchy = set_up(sizes, setup)
    if hierarchy is None:
        return
    run.inputs.update(
        levels=hierarchy.level_sizes(),
        operator_complexity=round(hierarchy.operator_complexity(), 4),
    )
    if tr.enabled:
        # solve() builds its preconditioner through the instance's method.
        vcycle = tr.wrap("solvers.vcycle", hierarchy.as_preconditioner())
        hierarchy.as_preconditioner = lambda: vcycle
    rng = np.random.default_rng(seed)
    pace = Pace(A, rounds=8)
    tr.phase = "loop"
    started = perf_counter()
    for _ in until(seconds):
        b = rng.standard_normal(A.shape[0])
        got = timed(run, "solvers.solve", lambda: hierarchy.solve(b, tol=TOL))
        if got is not None:
            _check_solve(run, A, b, *got)
        run.probe(pace)
    run.end_loop(started)
    hierarchy = None
    set_up_again(run, sizes, setup)


def cluster_gs(run: Run, seed: int, seconds: float, sizes: Sizes) -> None:
    tr = run.tracer
    side = sizes.gs_grid
    A = laplace3d_matrix(side, side, side)
    run.inputs.update(rows=A.shape[0], nnz=int(A.nnz))
    aggregate = tr.wrap("coarsen.mis2_aggregation", mis2_aggregation, _aggregation_attrs)

    def gs_attrs(gs) -> Dict[str, float]:
        return {"colors": gs.num_colors, "max_cluster_size": gs.max_cluster_size}

    def setup():
        got = timed(
            run, "gs.setup",
            lambda: ClusterMulticolorGaussSeidel(A, aggregation_fn=aggregate), gs_attrs,
        )
        if got is None:
            return None
        gs, setup_s = got
        ok = gs.aggregation.is_complete() and is_valid_coloring(gs.coarse, gs.coloring.colors)
        if run.check(ok, "cluster GS set-up: incomplete aggregation or improper coarse coloring"):
            run.sample("setup_s", setup_s)
        return gs

    gs = set_up(sizes, setup)
    if gs is None:
        return
    run.inputs.update(coarse_vertices=gs.coarse.num_vertices, colors=gs.num_colors)
    precondition = tr.wrap("gs.apply", gs.as_preconditioner())
    rng = np.random.default_rng(seed)
    tr.phase = "loop"
    started = perf_counter()
    for _ in until(seconds):
        b = rng.standard_normal(A.shape[0])
        got = timed(
            run, "solvers.gmres", lambda: gmres(A, b, M=precondition, tol=TOL, maxiter=800)
        )
        if got is not None:
            _check_solve(run, A, b, *got)
    run.end_loop(started)
    gs = precondition = None
    set_up_again(run, sizes, setup)


# -------------------------------------------------------------- partitioned
def _partitioned_call(run: Run, name: str, kernel: Callable, graph, backend):
    """One ``kernel(graph, partitions=PARTS)`` call, from graph to result.

    Traced, its span carries the result's ``PartitionStats`` and the socket
    meters' change across the call, both read outside the timed region.
    """
    attrs = None
    if run.tracer.enabled:
        before = backend.measured_stats()

        def attrs(result) -> Dict[str, float]:
            after = backend.measured_stats()
            stats = result.partition_stats
            return dict(
                _kernel_attrs(result),
                supersteps=stats.supersteps,
                resident_bytes=stats.resident_bytes,
                superstep_bytes=stats.superstep_bytes,
                max_superstep_bytes=stats.max_superstep_bytes,
                compute_s=stats.compute_seconds,
                exchange_s=stats.exchange_seconds,
                idle_s=stats.idle_seconds,
                bytes_sent=after["bytes_sent"] - before["bytes_sent"],
                bytes_received=after["bytes_received"] - before["bytes_received"],
                messages=sum(after[k] - before[k] for k in ("messages_sent", "messages_received")),
            )

    return timed(run, name, lambda: kernel(graph, partitions=PARTS, backend=backend), attrs)


def partitioned(run: Run, seed: int, seconds: float, sizes: Sizes) -> None:
    tr = run.tracer
    side = sizes.partitioned_grid
    graph = laplace3d(side, side, side)
    run.inputs.update(
        vertices=graph.num_vertices, edges=graph.num_edges, parts=PARTS, ranks=RANKS
    )
    # The flat numpy kernels on the same graph: every partitioned answer must equal them.
    flat_mis = kk_mis2(graph).in_mask
    flat_colors = greedy_color(graph).colors
    run.check(
        verify_mis(graph, np.flatnonzero(flat_mis)) and is_valid_coloring(graph, flat_colors),
        "flat numpy reference failed its own check",
    )

    def check_mis(got) -> bool:
        if got is None:
            return False
        ok = verify_mis(graph, got[0].in_set) and np.array_equal(got[0].in_mask, flat_mis)
        return run.check(ok, "partitioned kk_mis2 is not the flat kernel's maximal MIS-2")

    def check_colors(got) -> bool:
        if got is None:
            return False
        ok = is_valid_coloring(graph, got[0].colors) and np.array_equal(got[0].colors, flat_colors)
        return run.check(ok, "partitioned greedy_color is not the flat kernel's proper coloring")

    def setup():
        shutdown_rank_clusters()  # so that every set-up spawns its ranks
        with tr.span("parallel.setup"):
            start = perf_counter()
            backend = DistributedBackend(ranks=RANKS)
            with tr.span("transport.cluster_start"):
                backend.cluster()
            mis = _partitioned_call(run, "mis.kk_mis2", kk_mis2, graph, backend)
            colors = _partitioned_call(run, "coloring.greedy_color", greedy_color, graph, backend)
            setup_s = perf_counter() - start
        if check_mis(mis) & check_colors(colors):
            run.sample("setup_s", setup_s)
        return backend

    try:
        backend = set_up(sizes, setup)
        pace = Pace(laplace3d_matrix(side, side, side), rounds=4, python_steps=20000)
        tr.phase = "loop"
        started = perf_counter()
        for _ in until(seconds):
            got = _partitioned_call(run, "mis.kk_mis2", kk_mis2, graph, backend)
            if check_mis(got):
                run.sample("mis2_ms", 1e3 * got[1])
            run.probe(pace, PACE_CALLS)
            got = _partitioned_call(run, "coloring.greedy_color", greedy_color, graph, backend)
            if check_colors(got):
                run.sample("color_ms", 1e3 * got[1])
            run.probe(pace, PACE_CALLS)
        run.end_loop(started)
        set_up_again(run, sizes, setup)
    finally:
        shutdown_rank_clusters()


# ------------------------------------------------------------------ service
def _schedule(start: float, stop: float, period: float) -> Iterator[float]:
    """Open-loop due times ``start + k * period`` before ``stop``; sleeps until
    each is due, and yields it late when the caller fell behind."""
    k = 0
    while True:
        due = start + k * period
        if due >= stop:
            return
        delay = due - perf_counter()
        if delay > 0:
            sleep(delay)
        yield due
        k += 1


class _Epochs:
    """Writes started and finished; the service's epoch lies between them."""

    def __init__(self) -> None:
        self.started = 0
        self.done = 0


def _service_setup(svc: GraphService, graph):
    svc.add_graph(GRAPH, graph)
    return svc.mis2(GRAPH, seed=0), svc.color(GRAPH), svc.aggregate(GRAPH)


def service(run: Run, seed: int, seconds: float, sizes: Sizes) -> None:
    tr = run.tracer
    side = sizes.service_grid
    matrix = laplace3d_matrix(side, side, side)
    graph = from_scipy(matrix)
    n = graph.num_vertices
    run.inputs.update(vertices=n, edges=graph.num_edges)
    keys = mis_keys(n, 0)
    reference = (serial_mis2_mask(graph, keys), ordered_color(graph, keys))
    run.check(
        verify_mis(graph, np.flatnonzero(reference[0])) and is_valid_coloring(graph, reference[1]),
        "serial references failed their own check",
    )
    def setup():
        """A fresh service and its first answers, or None (and closed) on failure."""
        svc = GraphService()
        got = timed(run, "service.setup", lambda: _service_setup(svc, graph))
        if got is not None:
            (mask, colors, aggregation), setup_s = got
            ok = (
                np.array_equal(mask, reference[0])
                and np.array_equal(colors, reference[1])
                and aggregation.is_complete()
            )
            if run.check(ok, "service set-up answers differ from the serial references"):
                run.sample("setup_s", setup_s)
                return svc, (mask, colors)
        svc.close()
        return None

    def close(kept) -> None:
        kept[0].close()

    kept = set_up(sizes, setup, close)
    if kept is None:
        return
    try:
        _service_loop(run, kept[0], matrix, graph, keys, kept[1], seed, seconds)
    finally:
        close(kept)
    set_up_again(run, sizes, setup, close)


def _service_loop(run: Run, svc: GraphService, matrix, graph, keys, first, seed: int, seconds: float) -> None:
    """A writer at 4 writes/s and a reader at 100 reads/s, both open loops."""
    tr = run.tracer
    n = graph.num_vertices
    write_rng = np.random.default_rng([seed, 0])
    read_rng = np.random.default_rng([seed, 1])
    epochs = _Epochs()
    #: epoch -> ((mask, query s) or None, (colors, query s) or None)
    answers: Dict[int, Tuple] = {0: ((first[0], None), (first[1], None))}
    #: epoch -> the edge inserted on top of ``graph`` (None: ``graph`` itself)
    edges: Dict[int, Optional[Tuple[int, int]]] = {0: None}
    #: (kind index, answer, lowest epoch, highest epoch, latency s, lateness s)
    reads: List[Tuple] = []

    def fresh_edge() -> Tuple[int, int]:
        while True:
            u, v = (int(x) for x in write_rng.integers(0, n, size=2))
            if u != v and v not in graph.entries[graph.rowmap[u]: graph.rowmap[u + 1]]:
                return u, v

    def writer(start: float, stop: float) -> None:
        edge = None
        for k, due in enumerate(_schedule(start, stop, WRITE_PERIOD_S)):
            insert = k % 2 == 0
            if insert:
                edge = fresh_edge()
            write = svc.add_edges if insert else svc.remove_edges
            epochs.started = k + 1
            got = timed(run, "service.write", lambda: write(GRAPH, [edge]))
            if got is None:
                return  # the epoch count is no longer known; stop writing
            changed, _ = got
            latency = perf_counter() - due
            epochs.done = k + 1
            edges[k + 1] = edge if insert else None
            if run.check(changed == 1, f"write {k + 1} changed {changed} edges, not 1"):
                run.sample("mutate_ms", 1e3 * latency)
            answers[k + 1] = (
                timed(run, "service.query", lambda: svc.mis2(GRAPH, seed=0)),
                timed(run, "service.query", lambda: svc.color(GRAPH)),
            )
            if k % AGGREGATE_EVERY == 0:  # from the first write, so every run has one
                got = timed(run, "service.aggregate", lambda: svc.aggregate(GRAPH))
                if got is not None and run.check(
                    got[0].is_complete() and got[0].num_vertices == n,
                    "service aggregate is incomplete",
                ):
                    run.sample("aggregate_ms", 1e3 * got[1])

    def reader(start: float, stop: float) -> None:
        calls = (lambda: svc.mis2(GRAPH, seed=0), lambda: svc.color(GRAPH))
        order = (0, 1)
        for j, due in enumerate(_schedule(start, stop, READ_PERIOD_S)):
            if j % 2 == 0:
                order = tuple(read_rng.permutation(2))
            kind = int(order[j % 2])
            lowest = epochs.done
            sent = perf_counter()
            got = timed(run, "service.read", calls[kind])
            latency = perf_counter() - due
            if got is not None:
                reads.append((kind, got[0], lowest, epochs.started, latency, sent - due))

    before = svc.stats_snapshot()
    tr.phase = "loop"
    start = perf_counter() + 0.05
    stop = start + seconds
    threads = [
        threading.Thread(target=fn, args=(start, stop), name=fn.__name__, daemon=True)
        for fn in (writer, reader)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        run.check(not thread.is_alive(), f"service {thread.name} did not finish")
    run.end_loop(start)
    after = svc.stats_snapshot()
    run.service_stats = {key: after[key] - before[key] for key in after}
    _check_service_answers(run, matrix, graph, keys, answers, edges, reads)


def _check_service_answers(run: Run, matrix, graph, keys, answers, edges, reads) -> None:
    """Verify every writer answer and every read, after the loop has ended.

    The graph alternates between ``graph`` (even epochs) and ``graph`` plus
    one inserted edge (odd epochs). Even-epoch answers must equal epoch 0's;
    odd-epoch answers must be a maximal MIS-2 and a proper coloring, and at a
    few sampled odd epochs equal the serial references. A read must equal the
    writer's answer at some epoch between the writes finished before it was
    sent and the writes started when it returned.
    """
    odd = sorted(e for e, edge in edges.items() if edge is not None)
    sampled = {odd[i] for i in np.linspace(0, len(odd) - 1, REFERENCE_EPOCHS).astype(int)} if odd else set()
    base = answers[0]
    for epoch in sorted(answers):
        if epoch == 0:
            continue
        edge = edges[epoch]
        current = graph
        if edge is not None:
            u, v = edge
            extra = sp.csr_matrix(([1.0, 1.0], ([u, v], [v, u])), shape=matrix.shape)
            current = from_scipy(matrix + extra)
        mis, colors = answers[epoch]
        if mis is not None:
            mask, seconds = mis
            ok = verify_mis(current, np.flatnonzero(mask))
            if edge is None:
                ok = ok and np.array_equal(mask, base[0][0])
            elif epoch in sampled:
                ok = ok and np.array_equal(mask, serial_mis2_mask(current, keys))
            if run.check(ok, f"service mis2 answer at epoch {epoch} is wrong"):
                run.sample("query_ms", 1e3 * seconds)
        if colors is not None:
            col, seconds = colors
            ok = is_valid_coloring(current, col)
            if edge is None:
                ok = ok and np.array_equal(col, base[1][0])
            elif epoch in sampled:
                ok = ok and np.array_equal(col, ordered_color(current, keys))
            if run.check(ok, f"service color answer at epoch {epoch} is wrong"):
                run.sample("query_ms", 1e3 * seconds)
    for kind, answer, lowest, highest, latency, lateness in reads:
        candidates = [
            answers[e][kind][0]
            for e in range(lowest, highest + 1)
            if e in answers and answers[e][kind] is not None
        ]
        ok = any(answer is c or np.array_equal(answer, c) for c in candidates)
        if run.check(ok, f"read between epochs {lowest} and {highest} matches no epoch's answer"):
            run.sample("read_ms", 1e3 * latency)
            run.sample("read_late", float(lateness > LATE_S))
            run.sample("read_lateness_ms", 1e3 * lateness)


@dataclass(frozen=True)
class Workload:
    run: Callable[[Run, int, float, Sizes], None]
    why: str


WORKLOADS: Dict[str, Workload] = {
    "amg": Workload(amg, "Table V pipeline: mis, coarsen and solvers do the work; partition, transport, coloring and service never run, so it is their control"),
    "cluster_gs": Workload(cluster_gs, "Table VI / Algorithm 4: the only workload where flat greedy_color and gs do real work"),
    "partitioned": Workload(partitioned, "kk_mis2 and greedy_color with partitions=4 over 2 socket ranks: the only workload that runs partition, parallel and transport"),
    "service": Workload(service, "GraphService with an open-loop writer beside an open-loop reader: service dispatch, cache, repair and from_edges under contention"),
}


def measure(name: str, seed: int, seconds: float, tracer, sizes: Sizes = FULL) -> Run:
    """One measurement pass of workload ``name``; traced when ``tracer`` is."""
    run = Run(tracer)
    with tracer.patched(trace_targets()):
        WORKLOADS[name].run(run, seed, seconds, sizes)
    return run
