"""Result and configuration containers shared by all MIS algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..parallel.costmodel import TrafficCounter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (partitioned imports us)
    from ..parallel.partitioned import PartitionStats

__all__ = ["MISResult", "MISConfig"]


@dataclass(frozen=True)
class MISConfig:
    """Configuration an MIS run was executed with (recorded on the result)."""

    #: Algorithm family: ``"kk"`` (Algorithm 1), ``"bell"``, ``"luby"``, ``"reference"``.
    algorithm: str
    #: Independence distance (2 for MIS-2, 1 for MIS-1, general k for Bell).
    k: int
    #: Priority scheme name (``fixed`` / ``xor`` / ``xorstar``).
    priority_scheme: str
    #: Whether worklist compaction was used (Section V-B).
    use_worklists: bool
    #: Whether compressed single-word status tuples were used (Section V-C).
    packed_tuples: bool
    #: Whether SIMD/team-level inner loops were (modelled as) used (Section V-D).
    simd: bool
    #: Packed-word width in bits (32 or 64).
    word_bits: int = 64
    #: Seed for the fixed-priority scheme.
    seed: int = 0
    #: Number of intra-graph partitions the run was sharded into (1 = the
    #: unpartitioned kernel; >1 means the partition-parallel driver ran it).
    partitions: int = 1


@dataclass
class MISResult:
    """Output of an MIS computation.

    Attributes
    ----------
    in_set:
        Sorted vertex ids of the independent set.
    in_mask:
        Boolean mask of length ``num_vertices``; ``in_mask[v]`` is True when ``v`` is
        in the set.
    iterations:
        Number of main-loop iterations executed (the quantity reported in the paper's
        Tables I and III).
    worklist_sizes:
        Per-iteration ``(len(worklist1), len(worklist2))`` pairs (for the worklist
        ablation; algorithms without worklists record the full vertex count).
    traffic:
        Memory-traffic counter used by the device cost model. A partitioned run
        records no kernels here; its halo traffic is in ``partition_stats``.
    config:
        The :class:`MISConfig` the run used.
    """

    in_set: np.ndarray
    in_mask: np.ndarray
    iterations: int
    worklist_sizes: List[Tuple[int, int]] = field(default_factory=list)
    traffic: TrafficCounter = field(default_factory=TrafficCounter)
    config: Optional[MISConfig] = None
    #: Optional wall-clock seconds of the run (filled by the benchmark harness).
    elapsed_seconds: Optional[float] = None
    #: Partitioning measurables when the partition-parallel driver ran
    #: (:class:`~repro.parallel.partitioned.PartitionStats`); None otherwise.
    partition_stats: "Optional[PartitionStats]" = None

    @property
    def size(self) -> int:
        """Number of vertices in the independent set (paper's Table IV metric)."""
        return int(self.in_set.size)

    @property
    def num_vertices(self) -> int:
        return int(self.in_mask.size)

    def __post_init__(self) -> None:
        self.in_set = np.asarray(self.in_set, dtype=np.int64)
        self.in_mask = np.asarray(self.in_mask, dtype=bool)
        if self.in_set.size != int(np.count_nonzero(self.in_mask)):
            raise ValueError("in_set and in_mask disagree on the set size")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        algo = self.config.algorithm if self.config else "?"
        return (
            f"MISResult(algorithm={algo!r}, size={self.size}, "
            f"iterations={self.iterations}, vertices={self.num_vertices})"
        )
