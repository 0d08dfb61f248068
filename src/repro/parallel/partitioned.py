"""Partition-parallel execution: shard the graph kernels *within* one graph.

The vertex set of one graph is split into ``k`` parts (with
:func:`repro.partition.multilevel_kway` by default), each part owns its
vertices plus read-only *ghost* copies of the neighbours it can see in other
parts, and every iteration of the randomized MIS / coloring kernels runs as
bulk-synchronous supersteps:

1. every live part computes the phase for the vertices it owns, reading its
   ghosts' values as the coordinator shipped them with the phase;
2. the coordinator scatters the owned results into the shared global arrays,
   from which the next ghost-reading phase gathers each part's halo.

The determinism rule that makes this work: each phase task is a *pure function
of the pre-superstep snapshot* and writes only part-owned vertices, and the
per-vertex update applied is exactly the unpartitioned kernel's update.
Boundary vertices are therefore resolved by the same fixup recurrence the
serial kernel applies, just evaluated shard-wise — so the final MIS / coloring
is **bit-identical to the unpartitioned NumPy reference for any part count,
any part labelling and any execution backend** (the partition-equivalence test
matrix enforces exactly this). Part quality (edge cut, boundary size) affects
only the exchange volume, never the result.

Every kernel runs through one superstep path. ``ExecutionBackend.
map_partitions_resident`` opens a session that installs each part's
loop-invariant payload (local CSR, index maps, static parameters) and an
empty state once; the distributed ranks cache payloads under the layout
token, so a rerun on the same layout skips the CSR. An integer
``partitions=k`` reuses the graph's layout for ``k``, built once and kept on
the immutable graph while it lives, so repeated calls on one graph object
neither partition again nor re-ship the CSR; a label array builds a fresh
layout, with a fresh token, on every call. Each phase is then one
:meth:`~repro.parallel.backends.ResidentSession.run` call — a barrier — that
executes ``fn(payload, state, delta)`` for every live part. Every delta
carries, for each array the phase reads at ghosts, the coordinator's global
array gathered at ``part.halo`` (dense); the task writes those values into
its state and computes from that snapshot. A kk delta that reads no ghost
is the iteration number alone. Each part builds and keeps its own state
and worklists in its first task, so no index list ships: its tasks return
only the values other parts read (those of its boundary worklist, plus the
worklist size left), and all its owned values once, in the phase its
worklist empties (kk: only whether each is IN, since all are final then).
The coordinator derives the same boundary worklists from its own arrays.
A coloring part also recomputes only what the last round changed. The
session runs the parts serially in-process on numpy, and on the
distributed backend it pins part ``i`` to a rank process over sockets
(:mod:`repro.parallel.distributed`); the drivers here are the same for
both. Shipped bytes are accounted logically (array ``nbytes``, identical on
every backend), in **both directions** — deltas out, result arrays back —
and recorded on ``PartitionStats``.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..hashing.packing import TuplePacking
from ..hashing.priorities import PriorityScheme
from . import primitives as _ref
from .backends import ExecutionBackend, ResidentSession, get_backend

__all__ = [
    "GraphPart",
    "PartitionLayout",
    "PartitionStats",
    "build_partition_layout",
    "partition_vertices",
    "partitioned_greedy_color",
    "partitioned_kk_mis2",
]

#: Accepted ``partitions=`` specifications: a part count, an explicit integer
#: per-vertex label array, or a prebuilt layout.
PartitionSpec = Union[int, np.integer, np.ndarray, Sequence[int], "PartitionLayout"]

#: How far a layout's part count may exceed its vertex count before it is
#: rejected as a sparse (non-part-id) labelling.
_MAX_EMPTY_PART_SLACK = 1024


# --------------------------------------------------------------------- layout
@dataclass(frozen=True)
class GraphPart:
    """One shard of a partitioned graph: owned vertices, ghosts, local CSR.

    The local vertex space is ``ids`` (sorted global ids of owned + halo
    vertices); ``rowmap``/``entries`` store the adjacency of the *owned* rows
    in that local space (halo rows are empty — ghosts are read, never
    expanded). ``owned_local[i]`` is the local index of ``owned[i]``.
    ``ghost_rowmap``/``ghost_entries`` are the reverse direction: row ``j``
    lists the owned neighbours of ``halo[j]``, so a part can reach the owned
    vertices a changed ghost affects without scanning its cut.
    """

    part_id: int
    #: Sorted global ids owned by this part.
    owned: np.ndarray
    #: Sorted global ids of ghost vertices (neighbours owned by other parts).
    halo: np.ndarray
    #: Sorted global ids of the local vertex space (owned ∪ halo).
    ids: np.ndarray
    #: Local indices of the owned vertices within ``ids``.
    owned_local: np.ndarray
    #: Per-owned-vertex mask: True when every neighbour is owned by this part.
    interior_mask: np.ndarray
    #: Local CSR rowmap over ``ids`` (halo rows empty).
    rowmap: np.ndarray
    #: Local CSR entries (indices into ``ids``).
    entries: np.ndarray
    #: Reverse-adjacency rowmap over halo positions (``num_halo + 1`` entries).
    ghost_rowmap: np.ndarray
    #: Local indices of each ghost's owned neighbours, ascending per row.
    ghost_entries: np.ndarray

    @property
    def num_owned(self) -> int:
        return int(self.owned.size)

    @property
    def num_halo(self) -> int:
        return int(self.halo.size)

    @property
    def num_interior(self) -> int:
        return int(np.count_nonzero(self.interior_mask))

    @property
    def num_boundary(self) -> int:
        return self.num_owned - self.num_interior

    def interior(self) -> np.ndarray:
        """Global ids of the owned vertices with no foreign neighbour."""
        return self.owned[self.interior_mask]

    def boundary(self) -> np.ndarray:
        """Global ids of the owned vertices adjacent to another part."""
        return self.owned[~self.interior_mask]

    def local(self, vertices: np.ndarray) -> np.ndarray:
        """Local indices of ``vertices`` (global ids that must lie in ``ids``).

        A global id outside the part's local vertex space is a caller bug that
        a bare ``searchsorted`` would silently map onto an arbitrary local
        vertex (corrupting results without a trace), so membership is checked
        and violations raise.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        idx = np.searchsorted(self.ids, vertices)
        in_range = idx < self.ids.size
        member = np.zeros(vertices.shape, dtype=bool)
        member[in_range] = self.ids[idx[in_range]] == vertices[in_range]
        if not member.all():
            bad = np.unique(vertices[~member])
            shown = ", ".join(str(v) for v in bad[:5].tolist())
            suffix = ", ..." if bad.size > 5 else ""
            raise ValueError(
                f"global vertex id(s) [{shown}{suffix}] are not local to part "
                f"{self.part_id} (not owned and not in its halo)"
            )
        return idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphPart(part_id={self.part_id}, owned={self.num_owned}, "
            f"halo={self.num_halo}, boundary={self.num_boundary})"
        )


@dataclass(frozen=True)
class PartitionStats:
    """Deterministic partitioning measurables recorded on partitioned results."""

    #: Number of parts in the layout (including empty ones).
    num_parts: int
    #: Vertices whose whole neighbourhood is part-local.
    interior_vertices: int
    #: Vertices with at least one neighbour in another part.
    boundary_vertices: int
    #: Total ghost copies held across parts (communication footprint).
    halo_vertices: int
    #: Undirected edges crossing parts.
    cut_edges: int
    #: Ghost-exchange rounds (superstep phases) the driver executed.
    supersteps: int
    #: Logical bytes shipped once at session open (per-part CSR, index maps
    #: and static parameters; the state ships empty).
    resident_bytes: int = 0
    #: Logical bytes shipped across all supersteps, both directions: halo
    #: values (or kk's iteration number) out, and the boundary worklist's
    #: values and worklist sizes back.
    superstep_bytes: int = 0
    #: Largest single-superstep shipment — O(halo + boundary), plus the owned
    #: values of a part whose worklist empties — well below
    #: ``resident_bytes``.
    max_superstep_bytes: int = 0
    #: Coordinator wall-clock spent computing between session calls (elapsed
    #: minus exchange minus idle). ``perf_counter``-based and machine-varying —
    #: unlike every field above, the ``*_seconds`` triple is NOT deterministic
    #: and must never join the gated counts.
    compute_seconds: float = 0.0
    #: Wall-clock spent preparing and shipping phase deltas (the submit half
    #: of ``ResidentSession.run``: byte accounting + serialisation + send).
    exchange_seconds: float = 0.0
    #: Wall-clock the coordinator spent blocked waiting for phase results.
    idle_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "num_parts": self.num_parts,
            "interior_vertices": self.interior_vertices,
            "boundary_vertices": self.boundary_vertices,
            "halo_vertices": self.halo_vertices,
            "cut_edges": self.cut_edges,
            "supersteps": self.supersteps,
            "resident_bytes": self.resident_bytes,
            "superstep_bytes": self.superstep_bytes,
            "max_superstep_bytes": self.max_superstep_bytes,
            "compute_seconds": self.compute_seconds,
            "exchange_seconds": self.exchange_seconds,
            "idle_seconds": self.idle_seconds,
        }


#: Monotonic source of per-layout tokens (see :attr:`PartitionLayout.token`).
_LAYOUT_TOKENS = itertools.count(1)


def _next_layout_token() -> str:
    """A process-unique token naming one :class:`PartitionLayout` instance.

    The token keys the rank-resident payload caches: a worker that has part
    ``i`` of token ``t`` resident never receives that part's CSR again. The
    invalidation rule follows from which layouts get reused: an integer part
    count reuses the graph's layout, and so its token, while the graph lives
    (:func:`build_partition_layout`); a label array builds a fresh layout with
    a fresh token, even over the same graph and labels. A token's payloads
    therefore always describe the graph its layout was built from, and stale
    ones age out of the workers' LRU stores.
    """
    return f"layout-{os.getpid()}-{next(_LAYOUT_TOKENS)}"


@dataclass(frozen=True)
class PartitionLayout:
    """A k-way split of one graph into :class:`GraphPart` shards."""

    #: Per-vertex part labels on the original graph.
    labels: np.ndarray
    #: Number of parts (some may be empty).
    num_parts: int
    #: The shards, indexed by part id.
    parts: Tuple[GraphPart, ...]
    #: Undirected edges whose endpoints lie in different parts.
    cut_edges: int
    #: Process-unique identity keying the rank-resident payload caches. A
    #: part count's layout, and with it this token, is reused for as long as
    #: its graph lives; a label array's layout gets a fresh one on every build.
    token: str = field(default_factory=_next_layout_token)

    @property
    def num_vertices(self) -> int:
        return int(self.labels.size)

    @property
    def interior_vertices(self) -> int:
        return sum(p.num_interior for p in self.parts)

    @property
    def boundary_vertices(self) -> int:
        return sum(p.num_boundary for p in self.parts)

    @property
    def halo_vertices(self) -> int:
        return sum(p.num_halo for p in self.parts)

    def stats(
        self,
        supersteps: int,
        session: "Optional[ResidentSession]" = None,
        elapsed_seconds: Optional[float] = None,
    ) -> PartitionStats:
        """Snapshot of the layout's measurables after a ``supersteps``-long run.

        ``session`` (when the run went through the resident seam) contributes
        the shipped-bytes accounting and the exchange/idle wall-clock meters;
        without one the byte and timing fields are zero. ``elapsed_seconds``
        (the driver's total kernel-loop wall-clock) additionally yields
        ``compute_seconds`` as the remainder not spent shipping or waiting.
        """
        exchange = 0.0 if session is None else float(session.ship_seconds)
        idle = 0.0 if session is None else float(session.idle_seconds)
        compute = 0.0
        if elapsed_seconds is not None:
            compute = max(0.0, float(elapsed_seconds) - exchange - idle)
        return PartitionStats(
            num_parts=self.num_parts,
            interior_vertices=self.interior_vertices,
            boundary_vertices=self.boundary_vertices,
            halo_vertices=self.halo_vertices,
            cut_edges=self.cut_edges,
            supersteps=int(supersteps),
            resident_bytes=0 if session is None else int(session.resident_bytes),
            superstep_bytes=0 if session is None else int(session.superstep_bytes),
            max_superstep_bytes=0 if session is None else int(session.max_superstep_bytes),
            compute_seconds=compute,
            exchange_seconds=exchange,
            idle_seconds=idle,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionLayout(num_parts={self.num_parts}, "
            f"vertices={self.num_vertices}, boundary={self.boundary_vertices}, "
            f"cut={self.cut_edges})"
        )


def partition_vertices(graph: CSRGraph, num_parts: int) -> np.ndarray:
    """Deterministic per-vertex part labels splitting ``graph`` into ``num_parts``.

    Power-of-two counts use the multilevel recursive-bisection partitioner
    (:func:`repro.partition.multilevel_kway`, MIS-2 coarsening inside); other
    counts fall back to balanced contiguous vertex blocks. The choice affects
    only boundary sizes — partitioned kernel results are label-independent.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    n = graph.num_vertices
    if num_parts == 1 or n == 0:
        return np.zeros(n, dtype=np.int64)
    if num_parts & (num_parts - 1) == 0:
        from ..partition.multilevel import multilevel_kway

        return np.asarray(multilevel_kway(graph, num_parts).parts, dtype=np.int64)
    return (np.arange(n, dtype=np.int64) * num_parts) // n


def _build_part(graph: CSRGraph, labels: np.ndarray, part_id: int) -> GraphPart:
    owned = np.nonzero(labels == part_id)[0].astype(np.int64)
    slots, seg = _ref.expand_rows(graph.rowmap, owned)
    nbrs = graph.entries[slots].astype(np.int64)
    foreign = labels[nbrs] != part_id if nbrs.size else np.zeros(0, dtype=bool)
    halo = np.unique(nbrs[foreign])
    ids = np.union1d(owned, halo)
    owned_local = np.searchsorted(ids, owned)
    lens = np.diff(seg)
    foreign_owner = np.repeat(np.arange(owned.size, dtype=np.int64), lens)[foreign]
    has_foreign = np.zeros(owned.size, dtype=bool)
    has_foreign[foreign_owner] = True
    # Owned rows keep their adjacency (remapped into the local space); halo
    # rows stay empty — ghosts are only ever read.
    rowmap = np.zeros(ids.size + 1, dtype=np.int64)
    rowmap[owned_local + 1] = lens
    np.cumsum(rowmap, out=rowmap)
    entries = np.searchsorted(ids, nbrs)
    # The cut slots again, grouped by ghost: a stable sort keeps each ghost's
    # owned neighbours in ascending (owner) order.
    ghost = np.searchsorted(halo, nbrs[foreign])
    ghost_rowmap = np.zeros(halo.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(ghost, minlength=halo.size), out=ghost_rowmap[1:])
    ghost_entries = owned_local[foreign_owner[np.argsort(ghost, kind="stable")]]
    return GraphPart(
        part_id=int(part_id),
        owned=owned,
        halo=halo,
        ids=ids,
        owned_local=owned_local,
        interior_mask=~has_foreign,
        rowmap=rowmap,
        entries=entries,
        ghost_rowmap=ghost_rowmap,
        ghost_entries=ghost_entries,
    )


def build_partition_layout(graph: CSRGraph, partitions: PartitionSpec) -> PartitionLayout:
    """Resolve a ``partitions=`` specification into a :class:`PartitionLayout`.

    ``partitions`` may be a part count (labels come from
    :func:`partition_vertices`), an explicit integer per-vertex label array
    (labels in ``[0, max+1)``; empty parts are allowed), or an existing layout
    (returned unchanged; a layout whose owned rows are not ``graph``'s raises
    ``ValueError``). Anything else, such as a float count or float or bool
    labels, raises ``ValueError``.

    A part count's layout is built once per graph object and kept on the
    graph, which is immutable: every later call with the same count returns
    that layout object, token included, while the graph lives, so the
    resident sessions find its payloads already installed. Every caller
    shares it, so its arrays are read-only. A label array builds a fresh
    layout, with a fresh token, on every call.
    """
    if isinstance(partitions, PartitionLayout):
        # The layout the graph keeps was built from it; any other is checked.
        if graph._layouts.get(partitions.num_parts) is not partitions:
            _check_layout(graph, partitions)
        return partitions
    if isinstance(partitions, (int, np.integer)) and not isinstance(partitions, bool):
        num_parts = int(partitions)
        layout = graph._layouts.get(num_parts)
        if layout is None:
            layout = _read_only(
                _layout(graph, partition_vertices(graph, num_parts), num_parts)
            )
            # Two racing first calls both build; setdefault hands both the
            # one that was stored first.
            layout = graph._layouts.setdefault(num_parts, layout)
        return layout
    n = graph.num_vertices
    labels = np.asarray(partitions)
    # A cast to int64 would truncate float labels and turn bools into parts
    # 0/1, silently running another partition than the caller asked for.
    if labels.ndim == 0 or (labels.size and labels.dtype.kind not in "iu"):
        raise ValueError(
            "partitions must be a part count, an integer per-vertex label array "
            f"or a PartitionLayout (got a {labels.dtype} "
            f"{'scalar' if labels.ndim == 0 else 'array'})"
        )
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(
            f"partition labels must have one entry per vertex "
            f"(got shape {labels.shape} for {n} vertices)"
        )
    if n and labels.min() < 0:
        raise ValueError("partition labels must be non-negative")
    return _layout(graph, labels, int(labels.max()) + 1 if n else 1)


def _check_layout(graph: CSRGraph, layout: PartitionLayout) -> None:
    """Raise ``ValueError`` unless ``layout`` was built from ``graph``'s rows.

    The parts' owned rows partition the vertex set, so a layout matches
    when it has the graph's vertex count and every owned row, mapped back to
    global ids, is the graph's row. A layout of another graph would
    otherwise run silently and return a wrong answer.
    """
    if layout.num_vertices != graph.num_vertices:
        raise ValueError(
            f"partition layout covers {layout.num_vertices} vertices, "
            f"the graph has {graph.num_vertices}"
        )
    for part in layout.parts:
        slots, seg = _ref.expand_rows(graph.rowmap, part.owned)
        if not (
            np.array_equal(np.diff(part.rowmap)[part.owned_local], np.diff(seg))
            and np.array_equal(part.ids[part.entries], graph.entries[slots])
        ):
            raise ValueError(
                f"part {part.part_id} of the partition layout does not match "
                "the graph's adjacency; it was built from another graph"
            )


def _layout(graph: CSRGraph, labels: np.ndarray, num_parts: int) -> PartitionLayout:
    """Split ``graph`` into ``num_parts`` shards by its per-vertex ``labels``."""
    n = graph.num_vertices
    # One shard is materialised per part id, so a sparse labelling (hashes,
    # component ids) would silently allocate max(label)+1 mostly-empty shards.
    # Parts may legitimately exceed |V| slightly (restricted labels on a small
    # subgraph keep the original part ids), hence the generous slack.
    if num_parts > n + _MAX_EMPTY_PART_SLACK:
        raise ValueError(
            f"{num_parts} parts for a {n}-vertex graph — partition labels must "
            f"be (near-)dense part ids, not arbitrary keys"
        )
    parts = tuple(_build_part(graph, labels, p) for p in range(num_parts))
    from ..partition.metrics import edge_cut

    return PartitionLayout(
        labels=labels,
        num_parts=num_parts,
        parts=parts,
        cut_edges=edge_cut(graph, labels),
    )


def _read_only(layout: PartitionLayout) -> PartitionLayout:
    """Mark every array of ``layout`` read-only, as ``CSRGraph``'s are."""
    layout.labels.setflags(write=False)
    for part in layout.parts:
        for f in fields(part):
            value = getattr(part, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
    return layout


# ------------------------------------------------------ superstep task functions
#
# Module-level and picklable: they cross the distributed backend's sockets. Each has the session signature
# ``fn(payload, state, delta)`` — ``payload`` is the part's loop-invariant
# shipment (local CSR, index maps, static kernel parameters; installed once
# per run, cached across runs under the layout token), ``state`` the part's
# retained per-vertex arrays and worklists over the local space (empty until
# the part's first task builds them), and ``delta`` the phase's shipment: the
# ghosted array's halo values, or kk Refresh Row's iteration number. A task
# first writes the halo values into its state, computes its worklist from
# that snapshot with the per-vertex arithmetic of the unpartitioned kernel
# (which is what makes the drivers bit-identical to it), compacts its
# worklists, and returns its boundary worklist's values.


def _resident_payload(part: GraphPart, **extra) -> Dict:
    """The loop-invariant per-part shipment shared by all resident kernels."""
    payload = {
        "rowmap": part.rowmap,
        "entries": part.entries,
        "ids": part.ids,
        "halo_local": part.local(part.halo),
    }
    payload.update(extra)
    return payload


def _kk_state(payload) -> Dict:
    """A part's kk state, built by the part itself in its first task.

    ``T`` and ``M`` are the flat kernel's initial tuples and minima over the
    local space, ghosts included. ``w1`` and ``w2`` are the worklists (local
    ids, ascending), ``bw1`` and ``bw2`` their boundary vertices: the ones
    other parts read.
    """
    packer = TuplePacking(payload["n"], word_bits=payload["word_bits"])
    ids = payload["ids"]
    return {
        "T": packer.pack(np.zeros(ids.size, dtype=packer.dtype), ids),
        "M": np.full(ids.size, packer.out_value, dtype=packer.dtype),
        "w1": payload["owned_local"],
        "w2": payload["owned_local"],
        "bw1": payload["boundary_local"],
        "bw2": payload["boundary_local"],
    }


def _kk_refresh_row(payload, state, iteration):
    """Refresh Row: fresh tuples for ``w1``. Returns those of ``bw1``."""
    from ..mis.kk import _priorities_for

    if not state:
        state.update(_kk_state(payload))
    w1, T = state["w1"], state["T"]
    scheme = PriorityScheme.coerce(payload["scheme"])
    packer = TuplePacking(payload["n"], word_bits=payload["word_bits"])
    vertices = payload["ids"][w1]
    prios = _priorities_for(scheme, iteration, vertices, payload["n"], payload["seed"])
    T[w1] = packer.pack(prios.astype(packer.dtype), vertices)
    return T[state["bw1"]]


def _kk_refresh_column(payload, state, T_halo):
    """Refresh Column: the closed-neighbourhood minima of ``w2``.

    Returns the size of ``w2`` left and ``M`` at the ``bw2`` the phase
    started with, then drops the vertices whose ``M`` became ``OUT`` from
    both.
    """
    T, M, w2, bw2 = state["T"], state["M"], state["w2"], state["bw2"]
    T[payload["halo_local"]] = T_halo
    packer = TuplePacking(payload["n"], word_bits=payload["word_bits"])
    IN, OUT = packer.in_value, packer.out_value
    slots, seg = _ref.expand_rows(payload["rowmap"], w2)
    min_nbr = _ref.segmented_min(T[payload["entries"][slots]], seg, identity=OUT)
    Mv = np.minimum(min_nbr, T[w2])
    Mv = np.where(Mv == IN, OUT, Mv)
    M[w2] = Mv
    values = M[bw2]
    state["w2"] = w2 = w2[Mv != OUT]
    state["bw2"] = bw2[values != OUT]
    return w2.size, values


def _kk_decide(payload, state, M_halo):
    """Decide Set for ``w1``.

    Returns the size of ``w1`` left and ``T`` at the ``bw1`` the phase
    started with, then drops the decided vertices from both. In the phase
    ``w1`` empties every owned tuple is ``IN`` or ``OUT``, so it returns
    which owned vertices are ``IN`` instead.
    """
    T, M, w1, bw1 = state["T"], state["M"], state["w1"], state["bw1"]
    M[payload["halo_local"]] = M_halo
    packer = TuplePacking(payload["n"], word_bits=payload["word_bits"])
    IN, OUT = packer.in_value, packer.out_value
    slots, seg = _ref.expand_rows(payload["rowmap"], w1)
    nbr_M = M[payload["entries"][slots]]
    Tw = T[w1]
    Mw = M[w1]
    any_out = _ref.segmented_any_equal(nbr_M, OUT, seg) | (Mw == OUT)
    all_match = _ref.segmented_all_equal(nbr_M, Tw, seg) & (Mw == Tw)
    undecided = packer.is_undecided(Tw)
    to_out = any_out & undecided
    to_in = all_match & undecided & ~to_out
    newT = Tw.copy()
    newT[to_out] = OUT
    newT[to_in] = IN
    T[w1] = newT
    state["w1"] = w1 = w1[packer.is_undecided(newT)]
    if not w1.size:
        return 0, packer.is_in(T[payload["owned_local"]])
    values = T[bw1]
    state["bw1"] = bw1[packer.is_undecided(values)]
    return w1.size, values


#: A frontier phase's budget: the share of the worklist's adjacency slots its
#: estimated work may reach before the phase recomputes the whole worklist.
_FRONTIER_SHARE = 0.25


def _color_state(payload) -> Dict:
    """A part's coloring state, built by the part itself in round 0.

    ``final`` holds the final colors (``-1`` while uncolored) and ``cur`` the
    conflict-time view — proposals on the worklist, final colors elsewhere —
    both over the local space, ghosts included. ``wl`` is the worklist (local
    ids, ascending) and ``wl_slots`` its adjacency slots; ``won`` holds the
    vertices the last conflict phase made final, ``redo`` those the last
    speculation re-proposed (``None``: the whole worklist) and ``changed``
    those of them whose proposal moved. ``fanout`` is the last frontier
    expansion's result rows per expanded row (see :func:`_color_near`).
    """
    n_local = payload["ids"].size
    return {
        "final": np.full(n_local, -1, dtype=np.int64),
        "cur": np.full(n_local, -1, dtype=np.int64),
        "wl": payload["owned_local"],
        "wl_slots": int(payload["rowmap"][-1]),
        "fanout": 0.0,
        "won": None,
        "redo": None,
        "changed": None,
        "bwl": None,
    }


def _color_near(payload, state, view, halo, rows, also=None):
    """Worklist vertices adjacent to the owned vertices ``rows`` or to a ghost
    whose value in ``halo`` differs from its copy in ``view``, plus the
    worklist vertices ``also``.

    Returns ``None`` — recompute the whole worklist — once the rows to expand
    plus the rows of the result exceed ``_FRONTIER_SHARE`` of the worklist's
    slots. Until the expansion has run, the result's rows are estimated from
    the last expansion's ``fanout`` (result rows per expanded row); the owned
    rows are counted first, so a phase that is going to run full skips the
    halo scan and the expansion.
    """
    budget = _FRONTIER_SHARE * state["wl_slots"]
    rowmap, ghost_rowmap = payload["rowmap"], payload["ghost_rowmap"]
    known = 0 if also is None else int(_ref.row_lengths(rowmap, also).sum())
    scale = 1.0 + state["fanout"]
    cost = int(_ref.row_lengths(rowmap, rows).sum())
    if known + scale * cost > budget:
        return None
    ghosts = np.flatnonzero(view[payload["halo_local"]] != halo)
    cost += int(_ref.row_lengths(ghost_rowmap, ghosts).sum())
    if known + scale * cost > budget:
        return None
    hit = np.zeros(view.size, dtype=bool)
    hit[payload["entries"][_ref.expand_rows(rowmap, rows)[0]]] = True
    hit[payload["ghost_entries"][_ref.expand_rows(ghost_rowmap, ghosts)[0]]] = True
    if also is not None:
        hit[also] = True
    wl = state["wl"]
    near = wl[hit[wl]]
    reached = int(_ref.row_lengths(rowmap, near).sum()) - known
    if cost:
        state["fanout"] = reached / cost
    if known + cost + reached > budget:
        return None
    return near


def _color_assign(payload, state, final_halo):
    """Speculation: re-propose the worklist vertices next to a newly final one.

    A proposal depends only on the neighbours' final colors, so every other
    proposal stands. A ghost became final when its halo value changed (from
    ``-1`` to a color). Returns the proposals of the boundary worklist.
    """
    from ..coloring.greedy import _speculative_assign

    first = not state
    if first:
        state.update(_color_state(payload))
    final, cur, wl = state["final"], state["cur"], state["wl"]
    redo = None if first else _color_near(payload, state, final, final_halo, state["won"])
    final[payload["halo_local"]] = final_halo
    todo = wl if redo is None else redo
    slots, seg = _ref.expand_rows(payload["rowmap"], todo)
    proposals = _speculative_assign(
        final, payload["entries"][slots], np.diff(seg), payload["max_colors"]
    )
    state["redo"] = redo
    state["changed"] = None if redo is None else redo[proposals != cur[redo]]
    cur[todo] = proposals
    boundary = payload["boundary_local"]
    bwl = state["bwl"] = boundary[final[boundary] < 0]
    return cur[bwl]


def _color_conflict(payload, state, cur_halo):
    """Conflicts: re-decide the vertices whose losing witness may have moved.

    A worklist vertex lost last round to a lower-id neighbour with the same
    proposal; unless it was re-proposed or a neighbour's proposal changed,
    that witness still stands and it loses again. Returns the worklist size
    left and the boundary worklist's values (``-1`` for losers) — all owned
    colors once the worklist is empty.
    """
    final, cur, wl = state["final"], state["cur"], state["wl"]
    decide = None
    if state["redo"] is not None:
        decide = _color_near(
            payload, state, cur, cur_halo, state["changed"], also=state["redo"]
        )
    cur[payload["halo_local"]] = cur_halo
    if decide is None:
        decide = wl
    slots, seg = _ref.expand_rows(payload["rowmap"], decide)
    nbr = payload["entries"][slots]
    owners = np.repeat(decide, np.diff(seg))
    # Local ids order like the global ids they map to, so the tie-break
    # compares them directly.
    conflict = (cur[owners] == cur[nbr]) & (owners > nbr)
    lost = np.zeros(cur.size, dtype=bool)
    lost[owners[conflict]] = True
    won = state["won"] = decide[~lost[decide]]
    final[won] = cur[won]
    state["wl"] = wl = wl[final[wl] < 0]
    state["wl_slots"] -= int(_ref.row_lengths(payload["rowmap"], won).sum())
    if wl.size:
        return wl.size, final[state["bwl"]]
    return 0, final[payload["owned_local"]]


# ------------------------------------------------------------------- drivers
def partitioned_kk_mis2(
    graph: CSRGraph,
    partitions: PartitionSpec,
    priority_scheme: Union[str, PriorityScheme] = PriorityScheme.XORSTAR,
    use_worklists: bool = True,
    simd: Optional[bool] = None,
    word_bits: int = 64,
    seed: int = 0,
    backend: "str | ExecutionBackend" = "numpy",
):
    """Algorithm 1 executed partition-parallel; bit-identical to :func:`kk_mis2`.

    Each main-loop iteration runs as three supersteps (Refresh Row, Refresh
    Column, Decide), each one :meth:`ResidentSession.run` barrier over the
    live parts. Each part's local CSR ships to its session once. The part
    builds and keeps its tuples ``T``, minima ``M`` and worklists ``w1``
    (undecided) and ``w2`` (``M`` not yet ``OUT``), and compacts them itself
    after each phase, as the flat kernel does. Refresh Row ships only the
    iteration number; Refresh Column and Decide ship only the part's halo of
    ``T`` and ``M`` respectively. Each phase returns only what other parts
    read: the values of the part's *boundary worklist* (its boundary
    vertices still in ``w1``, or in ``w2`` for Refresh Column) as the phase
    started, plus the worklist size left. In the iteration its ``w1``
    empties, Decide returns which of the part's owned vertices are ``IN``
    instead. The coordinator derives the same ordered boundary worklists
    from its own ``T`` and ``M``, so no index list ships either way.

    This is exact:

    * A part's ``w1`` is its undecided owned vertices, and from iteration 1
      on its ``w2`` is its owned vertices with ``M != OUT``. That is what the
      flat kernel's compaction keeps, so the live parts and
      ``worklist_sizes`` come out the same.
    * A vertex leaves a worklist only when its value is final: an IN or OUT
      tuple never changes again, and ``OUT`` in ``M`` is sticky. Every phase
      returns every boundary value it can change, the ones that just became
      final included. So the coordinator's ``T`` and ``M`` are current on
      every boundary vertex, and every halo gather ships current values.
    * Each non-empty part returns its owned ``IN`` mask exactly once, when
      every owned tuple is ``IN`` or ``OUT``, so the final ``T`` is complete.

    See the module docstring for the determinism argument.
    """
    from ..mis.kk import SIMD_DEGREE_THRESHOLD, _max_iterations
    from ..mis.result import MISConfig, MISResult

    scheme = PriorityScheme.coerce(priority_scheme)
    if not use_worklists:
        raise ValueError(
            "partitioned execution always maintains per-part worklists; "
            "use partitions=None for the use_worklists=False ablation"
        )
    B = get_backend(backend)
    layout = build_partition_layout(graph, partitions)
    n = graph.num_vertices
    if simd is None:
        simd = graph.average_degree() >= SIMD_DEGREE_THRESHOLD
    config = MISConfig(
        algorithm="kk",
        k=2,
        priority_scheme=scheme.value,
        use_worklists=True,
        packed_tuples=True,
        simd=bool(simd),
        word_bits=word_bits,
        seed=seed,
        partitions=layout.num_parts,
    )
    if n == 0:
        return MISResult(
            in_set=np.zeros(0, dtype=np.int64),
            in_mask=np.zeros(0, dtype=bool),
            iterations=0,
            config=config,
            partition_stats=layout.stats(0),
        )

    packer = TuplePacking(n, word_bits=word_bits)
    IN, OUT = packer.in_value, packer.out_value
    T = packer.pack(np.zeros(n, dtype=packer.dtype), np.arange(n, dtype=np.int64))
    M = np.full(n, OUT, dtype=packer.dtype)
    members = layout.parts
    # The boundary worklists, in the order the parts keep them too.
    bw1 = [p.boundary() for p in members]
    bw2 = list(bw1)
    left1 = [p.num_owned for p in members]
    left2 = list(left1)
    worklist_sizes: List[Tuple[int, int]] = []
    iteration = 0
    max_iter = _max_iterations(n)

    payloads = [
        _resident_payload(
            p,
            n=n,
            word_bits=word_bits,
            scheme=scheme.value,
            seed=seed,
            owned_local=p.owned_local,
            boundary_local=p.owned_local[~p.interior_mask],
        )
        for p in members
    ]
    states: List[Dict] = [{} for _ in members]
    token = f"{layout.token}/kk2/{scheme.value}/s{seed}/w{word_bits}"
    session = B.map_partitions_resident(token, payloads, states)
    t0 = time.perf_counter()
    try:
        while any(left1):
            if iteration >= max_iter:
                raise RuntimeError(
                    f"partitioned MIS-2 did not converge within {max_iter} iterations; "
                    "this indicates a bug in the priority scheme or the graph structure"
                )
            worklist_sizes.append((sum(left1), sum(left2)))
            live1 = [i for i, size in enumerate(left1) if size]
            live2 = [i for i, size in enumerate(left2) if size]

            # ------------------------------------ Refresh Row (owner-local)
            outs = session.run(_kk_refresh_row, [(i, iteration) for i in live1])
            for i, values in zip(live1, outs):
                T[bw1[i]] = values

            # --------------------------------- Refresh Column (reads ghost T)
            outs = session.run(_kk_refresh_column, [(i, T[members[i].halo]) for i in live2])
            for i, (size, values) in zip(live2, outs):
                left2[i] = size
                M[bw2[i]] = values
                bw2[i] = bw2[i][values != OUT]

            # ------------------------------------ Decide (reads ghost M)
            outs = session.run(_kk_decide, [(i, M[members[i].halo]) for i in live1])
            for i, (size, values) in zip(live1, outs):
                left1[i] = size
                if size:
                    T[bw1[i]] = values
                    bw1[i] = bw1[i][packer.is_undecided(values)]
                else:
                    T[members[i].owned] = np.where(values, IN, OUT)
            iteration += 1
    finally:
        session.close()
    elapsed = time.perf_counter() - t0

    in_mask = packer.is_in(T)
    return MISResult(
        in_set=np.nonzero(in_mask)[0].astype(np.int64),
        in_mask=in_mask,
        iterations=iteration,
        worklist_sizes=worklist_sizes,
        config=config,
        partition_stats=layout.stats(
            session.supersteps, session=session, elapsed_seconds=elapsed
        ),
    )


def partitioned_greedy_color(
    graph: CSRGraph,
    partitions: PartitionSpec,
    max_rounds: Optional[int] = None,
    backend: "str | ExecutionBackend" = "numpy",
):
    """Speculative greedy coloring executed partition-parallel; bit-identical to
    :func:`greedy_color`.

    Each round runs two supersteps: speculative assignment (reads ghost
    colors) and conflict resolution (the higher-global-id endpoint of a
    same-color edge is uncolored by its owning part — the same deterministic
    tie-break as the unpartitioned kernel). Each is one
    :meth:`ResidentSession.run` barrier over the live parts. The per-part
    CSR and its ghost-to-owned reverse adjacency ship once; each phase ships
    only the part's dense halo of the shared colors. The part builds and
    keeps its worklist and coloring state itself, and returns the values of
    its boundary worklist (the vertices other parts read) — in the round its
    worklist empties, all its owned colors. The coordinator derives the same
    boundary worklist from its own colors, so no index list ships.

    Work per round follows what changed, which is exact:

    * A proposal depends only on the neighbours' final colors, so speculation
      re-proposes only the worklist vertices next to a vertex that became
      final last round: an owned winner, or a ghost whose halo color went
      from ``-1`` to a color. Every other proposal stands.
    * A vertex still in the worklist lost last round to a lower-id worklist
      neighbour with the same proposal. If neither proposal changed and that
      neighbour is still in the worklist — it left only by becoming final,
      which re-proposed this vertex — the vertex loses again. Conflicts
      therefore re-decide only the re-proposed vertices and the worklist
      neighbours of every vertex whose proposal changed (owned, or a ghost
      whose halo value differs from last round's); every other worklist
      vertex loses again.

    Round 0 recomputes the whole worklist, and so does a later phase whose
    frontier would expand more than ``_FRONTIER_SHARE`` of the worklist's
    adjacency slots. The switch reads only the part's own counts. Measured:
    on meshes (``laplace3d``, ``elasticity3d``, ``grid2d``) and paths, where
    a round settles about one diagonal, most later phases run the frontier;
    on ``rmat``, ``random_gnp`` and ``random_regular`` graphs every phase
    recomputes the whole worklist.
    """
    from ..coloring.greedy import ColoringResult, _compact_colors

    B = get_backend(backend)
    layout = build_partition_layout(graph, partitions)
    n = graph.num_vertices
    if n == 0:
        return ColoringResult(
            np.zeros(0, dtype=np.int64),
            0,
            0,
            partitions=layout.num_parts,
            partition_stats=layout.stats(0),
        )

    members = layout.parts
    colors = -np.ones(n, dtype=np.int64)
    boundaries = [p.boundary() for p in members]
    left = [p.num_owned for p in members]
    max_colors = graph.max_degree() + 1
    cap = max_rounds if max_rounds is not None else n + 2
    rounds = 0

    payloads = [
        _resident_payload(
            p,
            max_colors=max_colors,
            owned_local=p.owned_local,
            boundary_local=p.owned_local[~p.interior_mask],
            ghost_rowmap=p.ghost_rowmap,
            ghost_entries=p.ghost_entries,
        )
        for p in members
    ]
    states: List[Dict] = [{} for _ in members]
    token = f"{layout.token}/greedy/m{max_colors}"
    session = B.map_partitions_resident(token, payloads, states)
    t0 = time.perf_counter()
    try:
        while any(left):
            if rounds >= cap:
                raise RuntimeError(
                    "partitioned greedy coloring did not converge (conflict loop)"
                )
            live = [i for i, size in enumerate(left) if size]
            # The boundary worklist, in the order the parts derive it too.
            bwl = {i: boundaries[i][colors[boundaries[i]] < 0] for i in live}

            # ------------------------------- speculation (reads ghost colors)
            outs = session.run(_color_assign, [(i, colors[members[i].halo]) for i in live])
            for i, proposals in zip(live, outs):
                colors[bwl[i]] = proposals

            # ------------------------------- conflicts (reads ghost proposals)
            outs = session.run(_color_conflict, [(i, colors[members[i].halo]) for i in live])
            for i, (size, values) in zip(live, outs):
                left[i] = size
                colors[bwl[i] if size else members[i].owned] = values
            rounds += 1
    finally:
        session.close()
    elapsed = time.perf_counter() - t0

    colors, num_colors = _compact_colors(colors)
    return ColoringResult(
        colors,
        num_colors,
        rounds,
        partitions=layout.num_parts,
        partition_stats=layout.stats(
            session.supersteps, session=session, elapsed_seconds=elapsed
        ),
    )
