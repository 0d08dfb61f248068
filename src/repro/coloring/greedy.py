"""Speculative parallel greedy distance-1 coloring (Deveci et al. style).

Every round, each still-uncolored vertex picks the smallest color not used by any of
its already-colored neighbours (the speculation happens in parallel, so two adjacent
uncolored vertices can pick the same color); a conflict-resolution pass then uncolors
the higher-id endpoint of every conflicting edge. The rounds repeat until no vertex is
uncolored. Because ties are always broken by vertex id the result is deterministic and
identical across execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.backends import ExecutionBackend
from ..parallel.primitives import expand_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (partitioned imports us)
    from ..parallel.partitioned import PartitionStats

__all__ = ["greedy_color", "ColoringResult"]


@dataclass
class ColoringResult:
    """Output of a coloring algorithm."""

    #: Per-vertex color ids, 0-based, dense in ``[0, num_colors)``.
    colors: np.ndarray
    #: Number of distinct colors used.
    num_colors: int
    #: Number of speculative rounds executed.
    rounds: int
    #: Distance of the coloring (1 or 2).
    distance: int = 1
    #: Number of intra-graph partitions the run was sharded into (1 = unpartitioned).
    partitions: int = 1
    #: Partitioning measurables when the partition-parallel driver ran.
    partition_stats: "Optional[PartitionStats]" = None

    def color_classes(self) -> List[np.ndarray]:
        """Vertices grouped by color, ordered by color id."""
        return [np.nonzero(self.colors == c)[0].astype(np.int64) for c in range(self.num_colors)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColoringResult(num_colors={self.num_colors}, rounds={self.rounds}, "
            f"distance={self.distance}, vertices={self.colors.size})"
        )


def _speculative_assign(
    colors: np.ndarray,
    nbrs: np.ndarray,
    lens: np.ndarray,
    max_colors: int,
) -> np.ndarray:
    """Smallest color not used by any colored neighbour, for each worklist vertex.

    ``nbrs`` holds the worklist's expanded adjacency rows back to back and
    ``lens`` their lengths, one per worklist vertex.
    """
    nbr_colors = colors[nbrs]
    owner = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    forbidden = np.zeros((lens.size, max_colors + 1), dtype=bool)
    valid = nbr_colors >= 0
    clipped = np.minimum(nbr_colors[valid], max_colors)
    forbidden[owner[valid], clipped] = True
    # First available color per row (there is always one because a vertex has at most
    # max_colors-1 <= degree neighbours).
    return np.argmin(forbidden, axis=1).astype(np.int64)


def greedy_color(
    graph: CSRGraph,
    max_rounds: Optional[int] = None,
    backend: "str | ExecutionBackend" = "numpy",
    partitions=None,
) -> ColoringResult:
    """Distance-1 greedy coloring of ``graph``.

    Parameters
    ----------
    graph:
        Undirected input graph.
    max_rounds:
        Safety cap on speculative rounds (defaults to ``num_vertices + 2``; the
        algorithm terminates far sooner in practice).
    backend:
        Execution backend (name or instance) whose session runs the parts
        when ``partitions`` is set; unused without it. All backends produce
        bit-identical colorings.
    partitions:
        When not ``None``, shard the run within the graph (part count, label
        array or layout); the partition-parallel driver is bit-identical to
        the unpartitioned kernel.

    Returns
    -------
    :class:`ColoringResult` with a proper distance-1 coloring: adjacent vertices never
    share a color.
    """
    if partitions is not None:
        from ..parallel.partitioned import partitioned_greedy_color

        return partitioned_greedy_color(
            graph,
            partitions,
            max_rounds=max_rounds,
            backend=backend,
        )
    n = graph.num_vertices
    if n == 0:
        return ColoringResult(np.zeros(0, dtype=np.int64), 0, 0)
    colors = -np.ones(n, dtype=np.int64)
    worklist = np.arange(n, dtype=np.int64)
    max_colors = graph.max_degree() + 1
    rounds = 0
    cap = max_rounds if max_rounds is not None else n + 2

    while worklist.size > 0:
        if rounds >= cap:
            raise RuntimeError("greedy coloring did not converge (conflict loop)")
        # Speculative assignment.
        slots, seg = expand_rows(graph.rowmap, worklist)
        nbrs = graph.entries[slots].astype(np.int64)
        lens = np.diff(seg)
        colors[worklist] = _speculative_assign(colors, nbrs, lens, max_colors)
        owners = np.repeat(worklist, lens)
        # Conflict detection: an edge whose endpoints share a color uncolors the
        # higher-id endpoint (deterministic tie-break). Marking the losers and
        # reading the marks back yields them sorted, without a sort.
        conflict_mask = (colors[owners] == colors[nbrs]) & (owners > nbrs)
        lost = np.zeros(n, dtype=bool)
        lost[owners[conflict_mask]] = True
        losers = np.flatnonzero(lost).astype(np.int64, copy=False)
        colors[losers] = -1
        worklist = losers
        rounds += 1

    colors, num_colors = _compact_colors(colors)
    return ColoringResult(colors, num_colors, rounds, distance=1)


def _compact_colors(colors: np.ndarray) -> Tuple[np.ndarray, int]:
    """Renumber the non-negative ``colors`` to a dense range, in color order.

    Greedy first-fit already yields dense ids, but renumbering defensively keeps
    downstream color-class loops simple. The used colors come from a count, not
    a sort, so they are in ascending order at linear cost.
    """
    used = np.flatnonzero(np.bincount(colors))
    remap = -np.ones(int(used[-1]) + 1, dtype=np.int64)
    remap[used] = np.arange(used.size, dtype=np.int64)
    return remap[colors], int(used.size)
