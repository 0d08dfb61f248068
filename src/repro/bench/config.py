"""Benchmark configuration shared by all experiment drivers.

Every driver accepts a :class:`BenchConfig`; the defaults keep the whole suite small
enough to regenerate every table and figure in a few minutes on two CPU cores, while
``scale`` can be raised towards 1.0 to approach the paper's problem sizes when more
hardware is available.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import scipy.sparse as sp

from ..graph.csr import CSRGraph
from ..graph.suite import DEFAULT_SCALE, load_suite_graph, load_suite_matrix, suite_names

__all__ = [
    "BenchConfig",
    "cached_suite_graph",
    "cached_suite_matrix",
    "clear_suite_cache",
    "suite_cache_stats",
]


@dataclass(frozen=True)
class BenchConfig:
    """Knobs shared by the experiment drivers.

    The dataclass is frozen and contains only primitives/tuples, so it is both
    hashable and picklable — experiment task functions carry it into the
    chunked backend's process-pool workers unchanged.
    """

    #: Fraction of the paper's vertex counts used for the synthetic suite stand-ins.
    scale: float = DEFAULT_SCALE
    #: Timed trials per measurement (the paper uses 100; scaled down by default).
    trials: int = 3
    #: Untimed warmup runs before timing.
    warmup: int = 1
    #: Seed for all deterministic pseudo-random choices.
    seed: int = 0
    #: Optional directory with real SuiteSparse ``.mtx`` files (used when present).
    mtx_dir: Optional[str] = None
    #: Subset of suite matrices to run (None = all 17).
    matrices: Optional[Tuple[str, ...]] = None
    #: Execution backend of the run (None = ``numpy``): its ``map_graphs`` runs
    #: the units, and a parts-aware task runs its partitioned calls on it.
    backend: Optional[str] = None
    #: Intra-graph partition count for the experiments that support
    #: partition-parallel execution (None = unpartitioned). Partitioned runs
    #: additionally *verify* bit-identicality against the unpartitioned kernels
    #: and record boundary/ghost-exchange/shipped-bytes stats.
    parts: Optional[int] = None

    def matrix_names(self) -> List[str]:
        """Names of the matrices this configuration covers, in Table II order."""
        if self.matrices is not None:
            return list(self.matrices)
        return suite_names(main_only=True)


# --------------------------------------------------------------------- suite cache
#
# Suite stand-in generation dominates the small benches, so graphs and matrices are
# cached per process. The caches are module-level LRU dicts with an explicit,
# normalised ``(name, scale, seed, mtx_dir)`` key: under process-pool sharding
# every worker transparently builds its own cache on first use (the dicts are
# never pickled — task functions carry only the key ingredients), and on Linux a
# fork-started worker additionally inherits whatever the parent had already
# built. A lock keeps lookups/evictions safe when threads share the caches;
# generation itself runs outside the lock (a rare duplicate generation is
# harmless — both callers produce the identical deterministic object). Bounded so
# a long sweep over many scales cannot grow without limit.

_CacheKey = Tuple[str, float, int, Optional[str]]
_GRAPH_CACHE: "OrderedDict[_CacheKey, CSRGraph]" = OrderedDict()
_MATRIX_CACHE: "OrderedDict[_CacheKey, sp.csr_matrix]" = OrderedDict()
_CACHE_CAPACITY = 64
_CACHE_LOCK = threading.Lock()


def _cache_key(name: str, scale: float, seed: int, mtx_dir: Optional[str]) -> _CacheKey:
    return (str(name), float(scale), int(seed), None if mtx_dir is None else str(mtx_dir))


def _cache_get(cache: "OrderedDict[_CacheKey, object]", key: _CacheKey):
    with _CACHE_LOCK:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value


def _cache_put(cache: "OrderedDict[_CacheKey, object]", key: _CacheKey, value) -> None:
    with _CACHE_LOCK:
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > _CACHE_CAPACITY:
            cache.popitem(last=False)


def cached_suite_graph(
    name: str, scale: float, seed: int, mtx_dir: Optional[str] = None
) -> CSRGraph:
    """Per-process cache of suite stand-in graphs (generation dominates small benches)."""
    key = _cache_key(name, scale, seed, mtx_dir)
    graph = _cache_get(_GRAPH_CACHE, key)
    if graph is None:
        graph = load_suite_graph(name, scale=scale, seed=seed, mtx_dir=mtx_dir)
        _cache_put(_GRAPH_CACHE, key, graph)
    return graph


def cached_suite_matrix(
    name: str, scale: float, seed: int, mtx_dir: Optional[str] = None
) -> sp.csr_matrix:
    """Per-process cache of suite stand-in matrices."""
    key = _cache_key(name, scale, seed, mtx_dir)
    matrix = _cache_get(_MATRIX_CACHE, key)
    if matrix is None:
        matrix = load_suite_matrix(name, scale=scale, seed=seed, mtx_dir=mtx_dir)
        _cache_put(_MATRIX_CACHE, key, matrix)
    return matrix


def clear_suite_cache() -> None:
    """Drop every cached suite graph/matrix in this process."""
    with _CACHE_LOCK:
        _GRAPH_CACHE.clear()
        _MATRIX_CACHE.clear()


def suite_cache_stats() -> Dict[str, int]:
    """Current cache occupancy of this process (for tests and diagnostics)."""
    with _CACHE_LOCK:
        return {"graphs": len(_GRAPH_CACHE), "matrices": len(_MATRIX_CACHE)}
