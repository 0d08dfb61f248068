"""Pluggable execution backends: where the parts of a partitioned call run.

The paper gets *performance portability* from one kernel source run under
several Kokkos execution spaces. Here the kernels call the data-parallel
primitives of :mod:`repro.parallel.primitives` directly, and an
:class:`ExecutionBackend` decides one thing: where the parts of a
partitioned call run. It opens the part-pinned session a partitioned kernel
runs its supersteps in (:meth:`ExecutionBackend.map_partitions_resident`).
The flat kernels run the same NumPy code whatever backend exists, so only a
partitioned call (``kk_mis2(graph, partitions=4, backend="distributed")``)
picks one.

``numpy`` (:class:`NumpyBackend`) ships with this module and runs the parts
serially in-process; ``distributed`` registers itself from
:mod:`repro.parallel.distributed` and runs each part on a socket rank.

Every session runs the same pure task functions on the same inputs, so
results are bit-identical across backends; the equivalence tests enforce it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ExecutionBackend",
    "NumpyBackend",
    "ResidentSession",
    "register_backend",
    "get_backend",
    "available_backends",
    "shipped_nbytes",
]


def _check_count(name: str, value: Optional[int]) -> Optional[int]:
    """Validate a worker or rank count: ``None`` or an integer >= 1.

    A bool or a float is rejected, not truncated: ``ranks=2.5`` would
    otherwise key a cluster of its own and ``jobs=True`` would quietly mean
    one worker.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return int(value)


# ------------------------------------------------------------ resident sessions
#
# A partitioned kernel run opens a *session* that ships each part's immutable
# payload (local CSR, index maps, static parameters) and its initial mutable
# state exactly once, and afterwards ships only the per-superstep deltas
# (halo values, phase scalars) out and the results back.
# The in-process session keeps both in the caller's address space; the
# distributed backend pins part ``i`` to rank process ``i % ranks`` and runs
# the same protocol over sockets against the rank-side store of
# :mod:`repro.parallel.distributed`.


def shipped_nbytes(obj: Any) -> int:
    """Logical byte size of a resident payload / superstep delta / result.

    Counts NumPy array payloads (``nbytes``), one 8-byte word per numeric
    scalar, the encoded length of strings/bytes, recursing through
    tuples/lists/dicts; ``None`` costs 0. The measure is *logical* — what
    the data costs to move, independent of how (or whether) a particular
    backend actually serialises it — so the shipped-bytes accounting recorded
    on partitioned results is bit-identical across backends and gateable by
    ``repro.bench compare``.

    Any other type raises ``TypeError``: this function *is* the meter, so an
    unrecognised payload member must never ship invisibly for free (it used to
    — strings, ``None`` and object-dtype arrays all counted 0 bytes).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise TypeError(
                "shipped_nbytes: object-dtype arrays have no well-defined "
                "logical size; ship primitive-dtype arrays instead"
            )
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(shipped_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(shipped_nbytes(v) for v in obj)
    # NumPy scalars carry their dtype and must be checked before the plain
    # Python branch (np.float64 subclasses float): a np.float32 costs 4
    # bytes, a np.int8 or np.bool_ one — the flat 8-byte word this used to
    # charge over-counted every narrow scalar.
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return int(obj.itemsize)
    if isinstance(obj, (bool, int, float)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    raise TypeError(
        f"shipped_nbytes: unsupported payload type {type(obj).__name__!r}; "
        "every shipped member must have a defined logical size (arrays, "
        "numeric scalars, str/bytes, None, or containers of those)"
    )


class ResidentSession:
    """One partitioned kernel run's part-pinned execution handle.

    Created by :meth:`ExecutionBackend.map_partitions_resident` with the
    per-part immutable ``payloads`` and initial mutable ``states``; the driver
    then calls :meth:`run` once per superstep phase with ``(part_index,
    delta)`` tasks. Every task function is ``fn(payload, state, delta) ->
    result`` — a pure function of the payload, the part's retained state and
    the delta that may mutate ``state`` in place (only its own part's state,
    which is what keeps any execution strategy deterministic). :meth:`run` is
    a barrier: it returns once every task of the phase has run, so the tasks
    of one phase may execute in any order or concurrently.

    The base class implements the shipped-bytes accounting shared by every
    implementation, and it charges **both directions** of each superstep: the
    deltas shipped to the workers *and* the result arrays the workers return
    (the owned values the coordinator scatters back into the shared state are
    communication too — an outbound-only meter under-counts every phase).
    Each part's payload+state is charged once (``resident_bytes``) and each
    :meth:`run` charges deltas out + results back.
    """

    def __init__(self, token: str, payloads: Sequence, states: Sequence) -> None:
        if len(payloads) != len(states):
            raise ValueError("payloads and states must have one entry per part")
        self.token = str(token)
        self.num_parts = len(payloads)
        #: Bytes shipped once, at session open.
        self.resident_bytes = sum(shipped_nbytes(p) for p in payloads) + sum(
            shipped_nbytes(s) for s in states
        )
        #: Bytes shipped across all supersteps so far (both directions).
        self.superstep_bytes = 0
        #: Largest single-superstep shipment.
        self.max_superstep_bytes = 0
        #: Number of :meth:`run` calls (superstep phases) so far.
        self.supersteps = 0
        #: Coordinator wall-clock spent shipping phases (account + submit).
        self.ship_seconds = 0.0
        #: Coordinator wall-clock spent blocked waiting for phase results.
        self.idle_seconds = 0.0

    def _submit(self, fn: Callable, tasks: Sequence[Tuple[int, Any]]) -> Callable[[], List]:
        """Ship one phase's tasks and return a zero-argument collector.

        The collector blocks until the phase's results are available and
        returns them in task order.
        """
        raise NotImplementedError

    def run(self, fn: Callable, tasks: Sequence[Tuple[int, Any]]) -> List:
        """Execute one superstep phase: ``fn(payload, state, delta)`` per task.

        The outbound charge (deltas) is measured before anything executes and
        the inbound charge (results) once every task has returned; a phase
        that raises commits neither bytes nor a superstep.
        """
        tasks = list(tasks)
        start = time.perf_counter()
        step = sum(shipped_nbytes(delta) for _, delta in tasks)
        collect = self._submit(fn, tasks)
        shipped = time.perf_counter()
        self.ship_seconds += shipped - start
        try:
            results = collect()
        finally:
            self.idle_seconds += time.perf_counter() - shipped
        step += sum(shipped_nbytes(r) for r in results)
        self.supersteps += 1
        self.superstep_bytes += step
        if step > self.max_superstep_bytes:
            self.max_superstep_bytes = step
        return results

    def close(self) -> None:
        """Release per-session worker state (idempotent)."""

    def __enter__(self) -> "ResidentSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class _LocalResidentSession(ResidentSession):
    """In-address-space session: payloads and states live in the session.

    Tasks read and mutate the caller's arrays directly and run serially in
    task order, so it is trivially correct (nothing ever crosses a pickle
    boundary). The numpy backend uses it, and the distributed backend falls
    back to it when there is nothing to fan out.
    """

    def __init__(self, token: str, payloads: Sequence, states: Sequence) -> None:
        super().__init__(token, payloads, states)
        self._payloads = list(payloads)
        self._states = list(states)

    def _submit(self, fn: Callable, tasks: Sequence[Tuple[int, Any]]) -> Callable[[], List]:
        # Lazy: the tasks run inside the collector, so their compute is
        # metered as wait time, as it is on the distributed session.
        calls = [(self._payloads[i], self._states[i], delta) for i, delta in tasks]
        return lambda: [fn(p, s, d) for p, s, d in calls]


class ExecutionBackend:
    """Interface every execution backend implements.

    The base class is the serial reference: :meth:`map_partitions_resident`
    runs the parts in-process. A backend overrides it to run the parts
    elsewhere; the backend-equivalence suite runs every partitioned kernel
    on every registered backend and asserts bit-identical results.
    """

    #: Registry key (what ``get_backend`` and ``--backend`` look up).
    name: str = "abstract"

    def map_partitions_resident(
        self, token: str, payloads: Sequence, states: Sequence
    ) -> ResidentSession:
        """Open a part-pinned session for one partitioned kernel run.

        This is the intra-graph sharding hook (:mod:`repro.parallel.partitioned`
        drives it). ``payloads`` are the per-part *loop-invariant* inputs
        (local CSR, index maps, static parameters) and ``states`` the per-part
        mutable arrays; both ship once, identified by the layout ``token``.
        The returned :class:`ResidentSession` then executes each superstep
        phase via ``session.run(fn, [(part_index, delta), ...])`` — after the
        first superstep only the deltas (halo values, phase scalars) cross
        whatever boundary the backend has.

        The contract every backend must honour is the determinism rule of the
        partitioned kernels: ``fn(payload, state, delta)`` is a *pure*
        function of its inputs and mutates only its own part's ``state``, so
        the tasks of one phase are independent and any execution order or
        interleaving yields bit-identical results. The reference
        implementation keeps everything in the caller's address space and runs
        the parts serially (the numpy backend uses it); the distributed
        backend pins part ``i`` to a rank process.
        """
        return _LocalResidentSession(token, payloads, states)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(ExecutionBackend):
    """The serial reference backend."""

    name = "numpy"


# ------------------------------------------------------------------- registry
_REGISTRY: "Dict[str, ExecutionBackend]" = {}


def register_backend(backend: ExecutionBackend, *, overwrite: bool = False) -> ExecutionBackend:
    """Register ``backend`` under its ``name`` for lookup by :func:`get_backend`."""
    if not isinstance(backend, ExecutionBackend):
        raise TypeError("backend must be an ExecutionBackend instance")
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(backend: "str | ExecutionBackend") -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> List[str]:
    """Names of every registered backend, in registration order."""
    return list(_REGISTRY)


register_backend(NumpyBackend())
