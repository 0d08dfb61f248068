"""The always-on :class:`GraphService`: resident graphs, batched queries,
dynamic mutations with incremental repair.

Every query runs the flat kernels on the graph the service holds. MIS-2,
coloring and aggregation are deterministic, so no backend or partition count
could change an answer, and the service offers no choice of either.

**Mutations.** :class:`~repro.graph.csr.CSRGraph` is immutable (bit-identical
determinism relies on it), so every mutation installs a new graph and bumps
the graph's epoch. An edge write splices only the rows it touches into copies
of ``rowmap``/``entries`` and keeps the held graph canonical, so its cost
grows with the batch, not with the graph's edge count.

**Batched queries.** Queries enter through :meth:`GraphService.submit` from
any thread, each named by ``(graph, kind, seed)``. A single dispatcher drains
the queue in batches and coalesces identical requests onto one kernel run —
N concurrent clients asking for the same answer share one run and one cache
fill. Answers are cached per graph by ``(kind, seed)``.

**Incremental repair.** Each cached repairable answer (fixed-scheme MIS-2,
order-greedy coloring) carries its own frontier: the sorted ids that edge
writes and width-preserving vertex appends dirtied since its epoch. Its next
query seeds :mod:`repro.service.repair` from that frontier and repairs the
answer instead of recomputing. A frontier that outgrows the repair budget
(``repair_crossover`` of the vertex count, at least 32) is dropped with the
answer's value, so that query falls back to full recompute. A structural
write (a vertex removal, or an append that widens the packed ids) drops
every cached answer, and any other write drops the cached aggregates, which
are never repaired. Repair is bit-identical to from-scratch by construction
— the Hypothesis suite pins it for random mutation sequences.

**One MIS-2 per epoch.** Algorithm 3 seeds its aggregates with an MIS-2, and
an ``aggregate(seed=s)`` query takes the epoch's own: the ``mis2(seed=s)``
answer, a cache hit, a repair or a full compute that fills the ``mis2``
cache. Its phase-1 roots are therefore exactly the ``mis2(seed=s)`` answer
at the same epoch, and ``seed`` selects the fixed-scheme priorities. After a
write the aggregate recomputes phases 2 and 3 on top of the repaired MIS-2.
"""

from __future__ import annotations

import threading
import queue as queue_mod
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..graph.build import from_edges, to_scipy
from ..graph.csr import CSRGraph
from ..graph.ops import induced_subgraph
from ..hashing.packing import priority_bits
from ..hashing.priorities import check_seed
from ..parallel.primitives import expand_rows
from . import repair as _repair

__all__ = ["GraphService", "ServiceStats", "ServiceClosed"]


class ServiceClosed(RuntimeError):
    """The service was closed; no further queries or mutations are accepted."""


@dataclass
class ServiceStats:
    """Monotonic counters describing the service's work so far."""

    #: Queries answered (including cache hits and coalesced duplicates).
    queries: int = 0
    #: Queries answered straight from an epoch-current cached result.
    cache_hits: int = 0
    #: Duplicate in-flight queries folded onto another request's computation.
    coalesced: int = 0
    #: From-scratch kernel runs.
    full_recomputes: int = 0
    #: Successful incremental repairs.
    repairs: int = 0
    #: Vertices evaluated across all repairs.
    repair_touched: int = 0
    #: Repairs abandoned for full recompute (crossover or budget).
    repair_fallbacks: int = 0
    #: Mutations applied (epoch bumps).
    mutations: int = 0
    #: Mutations that invalidated the key order (renumber / id-width change).
    structural_mutations: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {k: int(v) for k, v in self.__dict__.items()}


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


#: The frontier of an answer no write has dirtied, shared by every one.
_CLEAN = _readonly(np.zeros(0, dtype=np.int64))


class _Cached(NamedTuple):
    """One cached answer: its value as of ``at_epoch`` and, for a repairable
    kind, the sorted ids (post-write numbering) dirtied since."""

    at_epoch: int
    value: Any
    dirty: Optional[np.ndarray] = _CLEAN


#: What a repairable answer becomes once its frontier outgrows the repair
#: budget: no value and no ids, so its next query falls back to a full compute.
_OUTGROWN = _Cached(at_epoch=-1, value=None, dirty=None)


@dataclass
class _Entry:
    name: str
    graph: CSRGraph  # guarded-by: lock
    epoch: int = 0  # guarded-by: lock
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: Answers by ``(kind, seed)``.
    caches: Dict[Tuple[str, int], _Cached] = field(default_factory=dict)  # guarded-by: lock
    #: Fixed-scheme key arrays for the current vertex count, per seed.
    keys: Dict[int, np.ndarray] = field(default_factory=dict)  # guarded-by: lock


@dataclass
class _Request:
    name: str
    kind: str
    seed: int
    future: Future


def _closed_neighborhood(graph: CSRGraph, vertices: np.ndarray) -> np.ndarray:
    """``vertices`` plus all their neighbours (the distance-1 closure)."""
    if vertices.size == 0:
        return vertices
    slots, _ = expand_rows(graph.rowmap, vertices)
    return np.unique(np.concatenate([vertices, graph.entries[slots]]))


def _is_canonical(graph: CSRGraph) -> bool:
    """True when ``graph`` has the form ``from_edges`` and ``from_scipy``
    build by default and every write keeps: rows sorted without duplicates,
    no self-loops, symmetric.

    Linear time: the slot codes ``row * n + col`` must strictly increase, and
    the transpose (scipy's ``csr_tocsc``, whose rows come out sorted) must
    equal the graph.
    """
    n = graph.num_vertices
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    codes = rows * n + graph.entries
    if np.any(np.diff(codes) <= 0) or np.any(rows == graph.entries):
        return False
    transpose = to_scipy(graph, dtype=np.int8).T.tocsr()
    return np.array_equal(transpose.indptr, graph.rowmap) and np.array_equal(
        transpose.indices, graph.entries
    )


def _has_bool(item: Any) -> bool:
    """Whether ``item``, a batch entry, is or holds a bool."""
    if isinstance(item, (bool, np.bool_)):
        return True
    if isinstance(item, np.ndarray):
        return item.dtype == np.bool_
    if isinstance(item, (list, tuple)):
        return any(_has_bool(x) for x in item)
    return False


def _as_batch(batch: Iterable, what: str) -> np.ndarray:
    """A write batch as an array.

    ``np.asarray`` turns a bool among integers into 0 or 1, which would run
    the write on ids the caller never named, so a batch that converts to
    integers while holding a bool raises ``ValueError`` naming the entry.
    An all-bool batch keeps its bool dtype for the caller's dtype check.
    """
    if isinstance(batch, np.ndarray):
        return batch
    items = list(batch)
    array = np.asarray(items)
    if array.dtype.kind in "iu":
        for item in items:
            if _has_bool(item):
                raise ValueError(f"{what} must be integers, got {item!r}")
    return array


def _canonical_edges(n: int, edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Validate and canonicalise an edge batch to unique ``u*n+v`` codes, u<v.

    The batch is any iterable of integer ``(u, v)`` pairs or an ``(m, 2)``
    integer array; anything else, a bool endpoint included, raises
    ``ValueError``. Self-loops are dropped (the CSR form is self-loop free;
    the kernels treat vertices as implicitly self-adjacent), duplicates
    collapse.
    """
    pairs = _as_batch(edges, "edge endpoints")
    if pairs.size == 0:
        return np.zeros(0, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    if not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError(f"edge endpoints must be integers, got {pairs.dtype}")
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        u, v = pairs[bad[0]].tolist()
        raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
    lo = pairs.min(axis=1).astype(np.int64)
    hi = pairs.max(axis=1).astype(np.int64)
    loop = lo == hi
    return np.unique(lo[~loop] * n + hi[~loop])


def _vertex_ids(n: int, vertices: Iterable[int]) -> np.ndarray:
    """Validate a vertex batch to its sorted unique ids.

    The batch is any iterable of integer ids or an integer array. A
    non-integer or bool id, or one outside ``[0, n)``, raises ``ValueError``
    naming it.
    """
    ids = _as_batch(vertices, "vertex ids").ravel()
    if ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(
            f"vertex ids must be integers, got {ids.dtype}: {ids[:5].tolist()}"
        )
    bad = np.flatnonzero((ids < 0) | (ids >= n))
    if bad.size:
        raise ValueError(f"vertex id {ids[bad[0]]} out of range for {n} vertices")
    return np.unique(ids.astype(np.int64))


def _splice(
    graph: CSRGraph, codes: np.ndarray, insert: bool
) -> Tuple[CSRGraph, np.ndarray]:
    """Insert (or delete) the undirected edges ``codes`` in a canonical graph.

    Reads only the rows the batch touches: each directed slot ``(r, c)`` of
    the batch is located by ``searchsorted`` among the ``r * n + c`` codes of
    those rows, the absent (or present) ones are inserted into (or deleted
    from) a copy of ``entries`` at their sorted positions, and ``rowmap``
    shifts by the running count of changed slots per row. The result is
    canonical again and equals ``from_edges`` of the new edge set.

    Returns the new graph (``graph`` itself when nothing changed) and the
    sorted rows of the changed slots: both endpoints of every changed edge.
    """
    if codes.size == 0:
        return graph, codes
    n = graph.num_vertices
    rowmap, entries = graph.rowmap, graph.entries
    lo, hi = np.divmod(codes, n)
    directed = np.sort(np.concatenate([codes, hi * n + lo]))
    rows, cols = np.divmod(directed, n)
    touched, which = np.unique(rows, return_inverse=True)
    slots, seg = expand_rows(rowmap, touched)
    slot_codes = np.repeat(touched, np.diff(seg)) * n + entries[slots]
    pos = np.searchsorted(slot_codes, directed)
    present = np.zeros(directed.size, dtype=bool)
    inside = pos < slot_codes.size
    present[inside] = slot_codes[pos[inside]] == directed[inside]
    change = ~present if insert else present
    changed_rows = rows[change]
    if changed_rows.size == 0:
        return graph, changed_rows
    if insert:
        at = rowmap[changed_rows] + pos[change] - seg[which[change]]
        new_entries = np.insert(entries, at, cols[change])
    else:
        new_entries = np.delete(entries, slots[pos[change]])
    shift = np.concatenate(
        [[0], np.cumsum(np.bincount(changed_rows, minlength=n))]
    )
    new_rowmap = rowmap + shift if insert else rowmap - shift
    return CSRGraph(new_rowmap, new_entries, validate=False), changed_rows


class GraphService:
    """Long-running, thread-safe store of named graphs that answers MIS-2,
    coloring and aggregation queries and repairs them across writes.

    Parameters
    ----------
    repair_crossover:
        Fraction of the vertex count the repair worklist may touch before a
        query falls back to full recompute (the dirty seed is screened
        against the same threshold up front).

    Queries (``mis2`` / ``color`` / ``aggregate``) can be called directly
    (synchronous; internally routed through the batching dispatcher) or
    submitted as futures via :meth:`submit`. A full compute runs the flat
    kernel on the held graph. MIS-2 queries and their repairs use
    ``kk_mis2``'s 64-bit packed-tuple keys. Mutations (``add_edges`` /
    ``remove_edges`` / ``add_vertices`` / ``remove_vertices``) apply
    immediately under the graph's lock and bump its epoch. :meth:`add_graph`
    canonicalises a graph whose rows are unsorted or hold duplicates,
    self-loops or one-way edges, so a write never changes more than the
    edges it names.
    """

    def __init__(self, repair_crossover: float = 0.25) -> None:
        if not (0.0 <= repair_crossover <= 1.0):
            raise ValueError("repair_crossover must be in [0, 1]")
        self._crossover = float(repair_crossover)
        self._entries: Dict[str, _Entry] = {}  # guarded-by: _entries_lock
        self._entries_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self.stats = ServiceStats()  # guarded-by: _stats_lock
        self._queue: "queue_mod.SimpleQueue[Optional[_Request]]" = queue_mod.SimpleQueue()
        self._closed = False  # guarded-by: _entries_lock
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="graph-service-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------ graph store
    def add_graph(self, name: str, graph: CSRGraph) -> None:
        """Register ``graph`` under ``name`` (replacing any previous holder).

        A graph that is not canonical (rows sorted without duplicates, no
        self-loops, symmetric) is stored as ``from_edges(n,
        graph.edge_array())``, the form every later write keeps; a canonical
        graph is stored as it is.
        """
        self._check_open()
        if not _is_canonical(graph):
            graph = from_edges(graph.num_vertices, graph.edge_array())
        with self._entries_lock:
            self._entries[name] = _Entry(name=name, graph=graph)

    def remove_graph(self, name: str) -> None:
        with self._entries_lock:
            self._entries.pop(name, None)

    def graph(self, name: str) -> CSRGraph:
        entry = self._entry(name)
        with entry.lock:
            return entry.graph

    def epoch(self, name: str) -> int:
        entry = self._entry(name)
        with entry.lock:
            return entry.epoch

    def graphs(self) -> List[str]:
        with self._entries_lock:
            return sorted(self._entries)

    def _entry(self, name: str) -> _Entry:
        with self._entries_lock:
            try:
                return self._entries[name]
            except KeyError:
                raise KeyError(f"no graph named {name!r} in the service") from None

    # -------------------------------------------------------------- mutations
    def add_edges(self, name: str, edges: Iterable[Tuple[int, int]]) -> int:
        """Insert undirected edges; returns how many were actually new.

        ``edges`` is an iterable of integer ``(u, v)`` pairs or an ``(m, 2)``
        integer array; a malformed batch raises ``ValueError`` and changes
        nothing.

        The dirty MIS frontier of an inserted edge ``(a, b)`` is the closed
        neighbourhood of both endpoints *in the new graph* — every vertex
        whose distance-2 reach gained a path through the new edge. The
        coloring frontier is just the endpoints (distance-1 rule).
        """
        entry = self._entry(name)
        with entry.lock:
            codes = _canonical_edges(entry.graph.num_vertices, edges)
            new_graph, changed_rows = _splice(entry.graph, codes, insert=True)
            if changed_rows.size == 0:
                return 0
            endpoints = np.unique(changed_rows)
            self._apply_mutation(
                entry,
                new_graph,
                mis_dirty=_closed_neighborhood(new_graph, endpoints),
                color_dirty=endpoints,
            )
            return changed_rows.size // 2

    def remove_edges(self, name: str, edges: Iterable[Tuple[int, int]]) -> int:
        """Delete undirected edges; returns how many actually existed.

        Symmetric to :meth:`add_edges`, except the dirty MIS frontier uses
        the *old* graph's neighbourhoods — the paths the deletion severed.
        """
        entry = self._entry(name)
        with entry.lock:
            codes = _canonical_edges(entry.graph.num_vertices, edges)
            new_graph, changed_rows = _splice(entry.graph, codes, insert=False)
            if changed_rows.size == 0:
                return 0
            endpoints = np.unique(changed_rows)
            mis_dirty = _closed_neighborhood(entry.graph, endpoints)
            self._apply_mutation(
                entry, new_graph, mis_dirty=mis_dirty, color_dirty=endpoints
            )
            return changed_rows.size // 2

    def add_vertices(self, name: str, count: int) -> Tuple[int, int]:
        """Append ``count`` isolated vertices; returns their id range.

        Appending preserves every existing vertex's id — and, as long as the
        packed-tuple id width ``b = ceil(log2(n + 2))`` doesn't grow, every
        existing key — so the repair frontier is just the new vertices. When
        the width does grow (vertex count crossing a power of two) the whole
        key order shifts: the mutation is structural and cached results are
        recomputed from scratch on next query. A ``count`` that is not a
        non-negative integer raises ``ValueError``.
        """
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"count must be an integer, got {count!r}")
        if count < 0:
            raise ValueError("count must be >= 0")
        entry = self._entry(name)
        with entry.lock:
            n = entry.graph.num_vertices
            if count == 0:
                return (n, n)
            new_n = n + count
            structural = (
                priority_bits(new_n)[0] != priority_bits(n)[0] if n > 0 else False
            )
            new_graph = CSRGraph(
                np.concatenate(
                    [entry.graph.rowmap, np.full(count, entry.graph.rowmap[-1])]
                ).astype(np.int64),
                entry.graph.entries.copy(),
                validate=False,
            )
            fresh = np.arange(n, new_n, dtype=np.int64)
            self._apply_mutation(
                entry,
                new_graph,
                mis_dirty=fresh,
                color_dirty=fresh,
                structural=structural,
            )
            return (n, new_n)

    def remove_vertices(self, name: str, vertices: Iterable[int]) -> int:
        """Delete vertices (and their edges), renumbering the survivors.

        ``vertices`` is an iterable of integer ids or an integer array; a
        non-integer, bool or out-of-range id raises ``ValueError`` and
        changes nothing.

        Renumbering changes every surviving vertex's id and therefore its
        packed key — the mutation is always structural and the next query of
        each kind recomputes from scratch.
        """
        entry = self._entry(name)
        with entry.lock:
            n = entry.graph.num_vertices
            drop = _vertex_ids(n, vertices)
            if drop.size == 0:
                return 0
            keep = np.setdiff1d(np.arange(n, dtype=np.int64), drop, assume_unique=True)
            new_graph, _ = induced_subgraph(entry.graph, keep)
            empty = np.zeros(0, dtype=np.int64)
            self._apply_mutation(
                entry,
                new_graph,
                mis_dirty=empty,
                color_dirty=empty,
                structural=True,
            )
            return int(drop.size)

    def _apply_mutation(
        self,
        entry: _Entry,
        new_graph: CSRGraph,
        mis_dirty: np.ndarray,
        color_dirty: np.ndarray,
        structural: bool = False,
    ) -> None:  # holds: lock
        entry.graph = new_graph
        entry.epoch += 1
        entry.keys.clear()
        if structural:
            # The key order changed, so no cached answer can be repaired.
            entry.caches.clear()
        else:
            # Ids recorded before an append stay valid after it, so each
            # repairable answer's frontier is the union of its writes' dirty
            # ids. An aggregate is never repaired.
            dirty_by_kind = {"mis2": mis_dirty, "color": color_dirty}
            budget = self._budget(new_graph.num_vertices)
            for key, cached in list(entry.caches.items()):
                if key[0] not in dirty_by_kind:
                    del entry.caches[key]
                elif cached is not _OUTGROWN:
                    dirty = np.union1d(cached.dirty, dirty_by_kind[key[0]])
                    entry.caches[key] = (
                        _Cached(cached.at_epoch, cached.value, dirty)
                        if dirty.size <= budget
                        else _OUTGROWN
                    )
        with self._stats_lock:
            self.stats.mutations += 1
            if structural:
                self.stats.structural_mutations += 1

    # ---------------------------------------------------------------- queries
    def submit(self, name: str, kind: str, seed: int = 0) -> "Future[Any]":
        """Enqueue one query; returns its future.

        ``seed`` selects the fixed-scheme priorities of ``mis2`` and
        ``aggregate``; ``color`` follows seed 0's key order and takes no
        other. A seed that is not an integer in ``[0, 2**64)`` (a bool
        included), or a nonzero seed on ``color``, resolves the future with
        ``ValueError`` and never queues. Concurrent submissions of the same
        ``(graph, kind, seed)`` at the same epoch are coalesced by the
        dispatcher onto a single computation.
        """
        if kind not in ("mis2", "color", "aggregate"):
            raise ValueError(f"unknown query kind {kind!r}")
        future: "Future[Any]" = Future()
        try:
            seed = check_seed(seed)
            if kind == "color" and seed != 0:
                raise ValueError(f"color takes no seed, got {seed!r}")
        except ValueError as exc:
            future.set_exception(exc)
            return future
        request = _Request(name, kind, seed, future)
        # The open check and the put are one step under the lock that close()
        # holds while it enqueues its stop sentinel, so no request can land
        # behind the sentinel, where the dispatcher would never drain it.
        with self._entries_lock:
            self._check_open()
            self._queue.put(request)
        return future

    def mis2(self, name: str, seed: int = 0):
        """Fixed-scheme MIS-2 of the named graph (repairable). Returns the
        boolean in-mask (read-only)."""
        return self.submit(name, "mis2", seed=seed).result()

    def color(self, name: str):
        """Order-greedy coloring of the named graph (repairable). Returns the
        per-vertex color array (read-only)."""
        return self.submit(name, "color").result()

    def aggregate(self, name: str, seed: int = 0):
        """MIS-2 aggregation (Algorithm 3) of the named graph, seeded with the
        epoch's ``mis2(seed=seed)`` answer: its phase-1 roots are exactly that
        mask's vertices, and ``seed`` selects the fixed-scheme priorities. The
        lookup fills the ``mis2`` cache but counts as no query. Cached per
        epoch; after a write, phases 2 and 3 recompute on the repaired MIS-2
        (no localized repair of the aggregation itself)."""
        return self.submit(name, "aggregate", seed=seed).result()

    # ------------------------------------------------------------- dispatcher
    def _dispatch_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            batch = [request]
            while True:
                try:
                    more = self._queue.get_nowait()
                except queue_mod.Empty:
                    break
                if more is None:
                    self._drain(batch)
                    return
                batch.append(more)
            self._drain(batch)

    def _drain(self, batch: List[_Request]) -> None:
        groups: Dict[Tuple[str, str, int], List[_Request]] = {}
        for request in batch:
            groups.setdefault(
                (request.name, request.kind, request.seed), []
            ).append(request)
        for (name, kind, seed), members in groups.items():
            try:
                value = self._execute(name, kind, seed, len(members))
            except BaseException as exc:  # noqa: BLE001 - delivered to callers
                for member in members:
                    member.future.set_exception(exc)
                continue
            with self._stats_lock:
                self.stats.coalesced += len(members) - 1
            for member in members:
                member.future.set_result(value)

    # -------------------------------------------------------------- execution
    def _execute(self, name: str, kind: str, seed: int, requests: int) -> Any:
        """Answer one coalesced group of ``requests`` identical queries."""
        entry = self._entry(name)
        with self._stats_lock:
            self.stats.queries += requests
        with entry.lock:
            value, hit = self._answer(entry, kind, seed)
        if hit:
            with self._stats_lock:
                self.stats.cache_hits += 1
        return value

    def _answer(
        self, entry: _Entry, kind: str, seed: int
    ) -> Tuple[Any, bool]:  # holds: lock
        """The epoch-current answer to ``(kind, seed)`` and whether it came
        straight from the cache: a cache hit, else a repair of the cached
        answer, else a full compute, stored for the epoch either way. Counts
        the repair or the recompute it runs, never a query or a hit."""
        key = (kind, seed)
        cached = entry.caches.get(key)
        if cached is not None and cached.at_epoch == entry.epoch:
            return cached.value, True
        # Only a repairable answer outlives a write (_apply_mutation).
        value = None if cached is None else self._try_repair(entry, kind, seed, cached)
        if value is None:
            value = self._full_compute(entry, kind, seed)
            with self._stats_lock:
                self.stats.full_recomputes += 1
        entry.caches[key] = _Cached(entry.epoch, value)
        return value, False

    def _budget(self, num_vertices: int) -> int:
        """How many vertices a repair may seed and touch before it falls back."""
        return max(32, int(self._crossover * num_vertices))

    def _keys(self, entry: _Entry, seed: int) -> np.ndarray:  # holds: lock
        keys = entry.keys.get(seed)
        if keys is None:
            keys = _repair.mis_keys(entry.graph.num_vertices, seed=seed)
            entry.keys[seed] = keys
        return keys

    def _try_repair(
        self, entry: _Entry, kind: str, seed: int, cached: _Cached
    ) -> Optional[Any]:  # holds: lock
        if cached is _OUTGROWN:
            with self._stats_lock:
                self.stats.repair_fallbacks += 1
            return None
        n = entry.graph.num_vertices
        budget = self._budget(n)
        keys = self._keys(entry, seed)
        prev = np.asarray(cached.value)
        if prev.size < n:
            # Width-preserving appends: new vertices enter dirty, so their
            # placeholder values are recomputed before anyone reads them.
            filler = np.zeros(n - prev.size, dtype=prev.dtype)
            prev = np.concatenate([prev, filler])
        if kind == "mis2":
            result = _repair.repair_mis2(
                entry.graph, keys, prev, cached.dirty, budget=budget
            )
        else:
            result = _repair.repair_ordered_color(
                entry.graph, keys, prev, cached.dirty, budget=budget
            )
        if result is None:
            with self._stats_lock:
                self.stats.repair_fallbacks += 1
            return None
        value, touched = result
        with self._stats_lock:
            self.stats.repairs += 1
            self.stats.repair_touched += touched
        return _readonly(value)

    def _full_compute(self, entry: _Entry, kind: str, seed: int) -> Any:  # holds: lock
        if kind == "mis2":
            from ..mis.kk import kk_mis2

            result = kk_mis2(entry.graph, priority_scheme="fixed", seed=seed)
            return _readonly(result.in_mask.copy())
        if kind == "color":
            keys = self._keys(entry, 0)
            return _readonly(_repair.ordered_color(entry.graph, keys))
        if kind == "aggregate":
            from ..coarsen.mis2_agg import mis2_aggregation
            from ..mis.result import MISResult

            # Phase 1 takes the epoch's own MIS-2: the mis2 answer for this
            # seed, looked up (or repaired, or computed and cached) here.
            mask, _ = self._answer(entry, "mis2", seed)
            mis = MISResult(np.flatnonzero(mask), mask, iterations=0)
            return mis2_aggregation(entry.graph, mis=mis)
        raise ValueError(f"unknown query kind {kind!r}")

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self) -> Dict[str, int]:
        """Consistent copy of the service counters, taken under the stats
        lock — unlike reading ``service.stats`` fields directly, the returned
        dict can never mix counts from two different moments."""
        with self._stats_lock:
            return self.stats.to_dict()

    # ----------------------------------------------------------------- health
    def health(self) -> Dict[str, Any]:
        """Liveness snapshot: ``closed``, ``healthy`` (open), and per graph
        its ``vertices``, ``edges`` and ``epoch``."""
        graphs: Dict[str, Dict[str, Any]] = {}
        with self._entries_lock:
            closed = self._closed
            entries = list(self._entries.items())
        for name, entry in entries:
            # Per-entry lock: a concurrent _apply_mutation reassigns graph
            # and epoch in sequence — reading them unlocked could mix the new
            # graph with the old epoch (a torn snapshot).
            with entry.lock:
                graphs[name] = {
                    "vertices": entry.graph.num_vertices,
                    "edges": entry.graph.num_edges,
                    "epoch": entry.epoch,
                }
        return {"closed": closed, "healthy": not closed, "graphs": graphs}

    # -------------------------------------------------------------- lifecycle
    def _check_open(self) -> None:
        with self._entries_lock:
            closed = self._closed
        if closed:
            raise ServiceClosed("GraphService is closed")

    def close(self) -> None:
        """Stop the dispatcher and reject further work (idempotent);
        in-flight queries finish."""
        with self._entries_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._dispatcher.join(timeout=30.0)

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
