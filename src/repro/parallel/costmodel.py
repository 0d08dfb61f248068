"""Roofline-style performance model.

The paper's MIS-2 kernel is memory-bound (Section VI-C), so its running time on a
device is, to first order, the memory traffic it moves divided by the device's
memory bandwidth, plus a fixed cost per kernel launch / parallel region. The MIS and
coarsening kernels in this package therefore count the bytes each parallel region
reads and writes (see :class:`TrafficCounter`); this module converts those counters
into predicted device times for the four systems in :mod:`repro.parallel.machine`,
computes the paper's "bandwidth efficiency" metric (Fig. 3) and provides the CPU
strong-scaling model used to regenerate Figs. 4 and 5.

These predictions stand in for wall-clock measurements on hardware we do not have;
Python wall-clock times are reported separately by the benchmark drivers for
relative (speedup) comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .machine import DeviceSpec, device

__all__ = [
    "KernelTraffic",
    "TrafficCounter",
    "scale_traffic",
    "predict_device_time",
    "bandwidth_efficiency",
    "strong_scaling_times",
    "scaling_efficiency",
]


@dataclass
class KernelTraffic:
    """Memory traffic of one parallel region (kernel launch)."""

    #: Label of the kernel (e.g. ``"refresh_row"``); used only for reporting.
    name: str
    #: Bytes read from memory by the region.
    bytes_read: int
    #: Bytes written to memory by the region.
    bytes_written: int
    #: Subset of ``bytes_read`` that is random-access (indexed gather) traffic.
    gather_bytes: int = 0
    #: Whether neighbour gathers used team/SIMD access, which coalesces adjacent
    #: accesses into full memory transactions on GPUs (Section V-D of the paper).
    coalesced: bool = True

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_read) + int(self.bytes_written)


@dataclass
class TrafficCounter:
    """Accumulates the memory traffic of a whole algorithm run.

    Kernels call :meth:`add` once per parallel region; the MIS-2 drivers attach one
    counter per run so that the benchmark harness can convert the run into predicted
    device times.
    """

    kernels: List[KernelTraffic] = field(default_factory=list)

    def add(
        self,
        name: str,
        bytes_read: int,
        bytes_written: int,
        gather_bytes: int = 0,
        coalesced: bool = True,
    ) -> None:
        """Record one parallel region's traffic.

        ``gather_bytes`` is the random-access portion of ``bytes_read``;
        ``coalesced`` marks whether those gathers are issued with SIMD/team-level
        parallelism (coalesced transactions on GPUs).
        """
        if bytes_read < 0 or bytes_written < 0 or gather_bytes < 0:
            raise ValueError("traffic byte counts must be non-negative")
        if gather_bytes > bytes_read:
            raise ValueError("gather_bytes cannot exceed bytes_read")
        self.kernels.append(
            KernelTraffic(name, int(bytes_read), int(bytes_written), int(gather_bytes), coalesced)
        )

    # ------------------------------------------------------------------ aggregates
    @property
    def num_kernels(self) -> int:
        """Number of recorded parallel regions (kernel launches)."""
        return len(self.kernels)

    @property
    def total_bytes(self) -> int:
        """Total bytes moved."""
        return sum(k.total_bytes for k in self.kernels)

    @property
    def bytes_read(self) -> int:
        return sum(k.bytes_read for k in self.kernels)

    @property
    def bytes_written(self) -> int:
        return sum(k.bytes_written for k in self.kernels)

    def by_kernel(self) -> Dict[str, int]:
        """Total bytes grouped by kernel name."""
        out: Dict[str, int] = {}
        for k in self.kernels:
            out[k.name] = out.get(k.name, 0) + k.total_bytes
        return out


def scale_traffic(traffic: TrafficCounter, factor: float) -> TrafficCounter:
    """Scale every kernel's byte counts by ``factor`` (kernel count unchanged).

    Used to extrapolate traffic measured on a scaled-down stand-in graph to the
    paper's full problem size: the per-iteration traffic of Algorithm 1 is linear in
    the number of vertices/edges processed, while the number of kernel launches grows
    only with the (logarithmic) iteration count, so scaling bytes and keeping launches
    fixed is a faithful first-order extrapolation.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    scaled = TrafficCounter()
    for k in traffic.kernels:
        scaled.kernels.append(
            KernelTraffic(
                name=k.name,
                bytes_read=int(k.bytes_read * factor),
                bytes_written=int(k.bytes_written * factor),
                gather_bytes=int(k.gather_bytes * factor),
                coalesced=k.coalesced,
            )
        )
    return scaled


def predict_device_time(
    traffic: TrafficCounter,
    dev: DeviceSpec | str,
    threads: int | None = None,
) -> float:
    """Predicted execution time (seconds) of ``traffic`` on device ``dev``.

    GPUs: ``launches * latency + bytes / bandwidth``.
    CPUs: the same, evaluated at ``threads`` hardware threads through the
    strong-scaling model (defaults to the device's physical core count, which is how
    the paper configures Table II).
    """
    spec = device(dev) if isinstance(dev, str) else dev
    if spec.kind == "gpu":
        # Uncoalesced gathers waste transaction bandwidth on GPUs: each narrow access
        # still moves a full memory transaction, modelled as a 2x inflation of the
        # random-access read traffic (Section V-D motivates the SIMD optimization
        # precisely to avoid this).
        effective_bytes = 0
        for k in traffic.kernels:
            penalty = 1.0 if k.coalesced else 2.0
            effective_bytes += k.total_bytes + (penalty - 1.0) * k.gather_bytes
        return (
            traffic.num_kernels * spec.kernel_latency_s
            + effective_bytes / spec.memory_bandwidth_bytes
        )
    if threads is None:
        threads = spec.physical_cores
    times = strong_scaling_times(traffic, spec, [threads])
    return times[0]


def bandwidth_efficiency(
    traffic: TrafficCounter, dev: DeviceSpec | str, measured_time_s: float | None = None
) -> float:
    """The paper's Fig. 3 metric: MIS-2 instances per second divided by bandwidth.

    ``(1 / time) / bandwidth_GBs``. When ``measured_time_s`` is not given, the
    predicted device time is used. Higher is better; with perfect portability the
    value is identical across devices.
    """
    spec = device(dev) if isinstance(dev, str) else dev
    t = measured_time_s if measured_time_s is not None else predict_device_time(traffic, spec)
    if t <= 0:
        raise ValueError("time must be positive")
    return (1.0 / t) / spec.memory_bandwidth_gbs


def _effective_parallelism(spec: DeviceSpec, threads: int) -> float:
    """Effective parallel speedup factor for ``threads`` hardware threads on a CPU.

    Up to the physical core count parallelism is linear; the second hardware thread
    of each core adds only a small amount (and contention eventually makes it a net
    slowdown), matching the shape the paper observes in Figs. 4-5.
    """
    cores = spec.physical_cores
    if threads <= cores:
        return float(threads)
    extra = threads - cores
    # Each hyperthread adds a diminishing contribution and increases contention on
    # the shared core resources.
    gain = extra * 0.10
    contention = spec.hyperthread_penalty * (extra / cores) * cores
    return max(1.0, cores + gain - contention)


def strong_scaling_times(
    traffic: TrafficCounter,
    dev: DeviceSpec | str,
    thread_counts: Sequence[int],
) -> List[float]:
    """Predicted CPU times (seconds) for each entry of ``thread_counts``.

    The model combines (i) an Amdahl-style serial fraction, (ii) a smoothly saturating
    memory-bandwidth speedup ``S(p) = p (1 + f) / (1 + p f)`` where ``f`` is the
    device's bandwidth-contention coefficient (near-linear for small ``p``, bending
    over as the memory system saturates), and (iii) a hyperthreading penalty past the
    physical core count. The single-thread time is derived from the traffic and the
    fraction of peak bandwidth a single core can drive.
    """
    spec = device(dev) if isinstance(dev, str) else dev
    if spec.kind != "cpu":
        raise ValueError("strong_scaling_times applies to CPU devices")
    if any(t < 1 for t in thread_counts):
        raise ValueError("thread counts must be >= 1")
    single_core_bw = spec.memory_bandwidth_bytes * spec.single_core_bandwidth_fraction
    t1_mem = traffic.total_bytes / single_core_bw
    region_cost = traffic.num_kernels * spec.kernel_latency_s
    contention = spec.bandwidth_contention
    times = []
    for p in thread_counts:
        eff = _effective_parallelism(spec, int(p))
        speedup = eff * (1.0 + contention) / (1.0 + eff * contention)
        parallel_time = (1.0 - spec.serial_fraction) * t1_mem / speedup
        serial_time = spec.serial_fraction * t1_mem
        # Synchronisation overhead grows mildly with the number of threads.
        sync = region_cost * (1.0 + 0.02 * (int(p) - 1))
        times.append(parallel_time + serial_time + sync)
    return times


def scaling_efficiency(
    traffic: TrafficCounter,
    dev: DeviceSpec | str,
    thread_counts: Sequence[int],
) -> List[float]:
    """Strong-scaling efficiency ``t(1) / (p * t(p))`` for the given thread counts
    (1.0 is ideal), as plotted in the paper's Figs. 4 and 5."""
    spec = device(dev) if isinstance(dev, str) else dev
    t1 = strong_scaling_times(traffic, spec, [1])[0]
    times = strong_scaling_times(traffic, spec, thread_counts)
    return [t1 / (p * t) for p, t in zip(thread_counts, times)]
