"""Portable parallel execution substrate.

The paper's implementation is written against the Kokkos programming model so that a
single source runs on CUDA, HIP and OpenMP backends. This package provides the Python
analogue used by the reproduction:

* :mod:`~repro.parallel.primitives` — the vectorised segmented/row-wise primitives the
  graph kernels call directly (segmented min/any/all over CSR rows, exclusive scans,
  stream compaction).
* :mod:`~repro.parallel.backends` — the pluggable :class:`ExecutionBackend` seam that
  decides where graphs and partitions run: the serial ``numpy`` reference, the
  process-pool ``chunked`` backend and the socket ``distributed`` backend
  (:mod:`~repro.parallel.distributed`). A partitioned call picks the session its
  parts run in (``partitions=4, backend="distributed"``); the benchmark harness
  picks the ``map_graphs`` strategy of a sweep.
* :mod:`~repro.parallel.machine` — device catalogue (V100, MI100, Skylake, ThunderX2)
  with the published memory bandwidths the paper's Fig. 3 uses.
* :mod:`~repro.parallel.costmodel` — roofline-style traffic/latency model converting
  kernel memory-traffic counters into predicted device times, plus the CPU
  strong-scaling model used to reproduce Figs. 4 and 5.
"""

from __future__ import annotations

from .primitives import (
    exclusive_scan,
    inclusive_scan,
    stream_compact,
    segmented_min,
    segmented_max,
    segmented_all_equal,
    segmented_any_equal,
    segmented_lexmin,
    segmented_sum,
)
from .backends import (
    ExecutionBackend,
    NumpyBackend,
    ChunkedBackend,
    ResidentSession,
    register_backend,
    get_backend,
    available_backends,
    shipped_nbytes,
)
from .transport import (
    MessageConnection,
    MessageListener,
    TransportError,
    connect_with_retry,
)

# Importing .distributed registers the "distributed" backend; it must follow
# .backends (whose registry it extends) and precede .partitioned (whose
# drivers may be asked to run on it).
from .distributed import (
    DistributedBackend,
    RankCluster,
    RankDeathError,
    shutdown_rank_clusters,
)
from .machine import DeviceSpec, DEVICES, device, device_names
from .costmodel import (
    TrafficCounter,
    KernelTraffic,
    scale_traffic,
    predict_device_time,
    bandwidth_efficiency,
    strong_scaling_times,
    scaling_efficiency,
)

# Imported last: the partitioned drivers lazily reach back into repro.mis /
# repro.coloring at call time, and their module depends on .backends above.
from .partitioned import (
    GraphPart,
    PartitionLayout,
    PartitionStats,
    build_partition_layout,
    partition_vertices,
    partitioned_greedy_color,
    partitioned_kk_mis2,
)

__all__ = [
    "exclusive_scan",
    "inclusive_scan",
    "stream_compact",
    "segmented_min",
    "segmented_max",
    "segmented_all_equal",
    "segmented_any_equal",
    "segmented_lexmin",
    "segmented_sum",
    "ExecutionBackend",
    "NumpyBackend",
    "ChunkedBackend",
    "ResidentSession",
    "register_backend",
    "get_backend",
    "available_backends",
    "shipped_nbytes",
    "MessageConnection",
    "MessageListener",
    "TransportError",
    "connect_with_retry",
    "DistributedBackend",
    "RankCluster",
    "RankDeathError",
    "shutdown_rank_clusters",
    "GraphPart",
    "PartitionLayout",
    "PartitionStats",
    "build_partition_layout",
    "partition_vertices",
    "partitioned_greedy_color",
    "partitioned_kk_mis2",
    "DeviceSpec",
    "DEVICES",
    "device",
    "device_names",
    "TrafficCounter",
    "KernelTraffic",
    "scale_traffic",
    "predict_device_time",
    "bandwidth_efficiency",
    "strong_scaling_times",
    "scaling_efficiency",
]
