"""Tests for the ExecutionBackend registry, selection machinery and backends."""

import numpy as np
import pytest

from repro.graph import random_gnp
from repro.mis import kk_mis2
from repro.parallel import (
    ChunkedBackend,
    DistributedBackend,
    ExecutionBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.parallel.backends import _REGISTRY

from tests.conftest import INVALID_COUNTS


def _graph_mis_size(graph):
    """Module-level so the process-pool test can pickle it."""
    return int(kk_mis2(graph).in_set.size)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["numpy", "chunked", "distributed"]

    def test_get_backend_by_name_and_instance(self):
        np_backend = get_backend("numpy")
        assert isinstance(np_backend, NumpyBackend)
        assert get_backend(np_backend) is np_backend

    @pytest.mark.parametrize("name", ["cuda", "threaded"])
    def test_unknown_backend_rejected(self, name):
        # A deleted backend's name fails like a name that never existed.
        with pytest.raises(ValueError, match=rf"unknown backend '{name}'; registered: \["):
            get_backend(name)

    def test_register_rejects_duplicates_and_non_backends(self):
        with pytest.raises(ValueError):
            register_backend(NumpyBackend())
        with pytest.raises(TypeError):
            register_backend("numpy")

    def test_register_overwrite(self):
        original = get_backend("chunked")
        replacement = ChunkedBackend(processes=2)
        try:
            register_backend(replacement, overwrite=True)
            assert get_backend("chunked") is replacement
        finally:
            register_backend(original, overwrite=True)


class TestChunkedBackend:
    @pytest.mark.parametrize("processes, message", INVALID_COUNTS)
    def test_validates_parameters(self, processes, message):
        with pytest.raises(ValueError, match=f"processes must be {message}"):
            ChunkedBackend(processes=processes)

    def test_numpy_integer_count_is_valid(self):
        backend = ChunkedBackend(processes=np.int64(2))
        assert backend.processes == 2 and type(backend.processes) is int

    def test_map_graphs_process_pool_preserves_order(self):
        graphs = [random_gnp(40, 0.1, seed=s) for s in range(4)]
        serial = NumpyBackend().map_graphs(_graph_mis_size, graphs)
        pooled = ChunkedBackend(processes=2).map_graphs(_graph_mis_size, graphs)
        inline = ChunkedBackend(processes=1).map_graphs(_graph_mis_size, graphs)
        assert pooled == serial == inline


class TestWithJobs:
    def test_serial_backends_ignore_jobs(self):
        B = NumpyBackend()
        assert B.with_jobs(4) is B
        assert B.with_jobs(None) is B

    def test_chunked_clone(self):
        B = ChunkedBackend()
        clone = B.with_jobs(3)
        assert clone is not B
        assert clone.processes == 3
        assert B.processes is None  # registered instance untouched
        assert B.with_jobs(None) is B


def test_every_registered_backend_is_an_execution_backend():
    for name in available_backends():
        assert isinstance(_REGISTRY[name], ExecutionBackend)
        assert _REGISTRY[name].name == name


def test_backends_define_no_primitives():
    # A backend is an execution strategy only: the kernels call
    # repro.parallel.primitives directly.
    from repro.parallel import primitives

    for name in available_backends():
        for primitive in primitives.__all__:
            assert not hasattr(_REGISTRY[name], primitive), (name, primitive)


# ------------------------------------------------------------ session contract

#: Every session implementation: serial in-process (numpy, and chunked, whose
#: pool serves only map_graphs), and socket ranks, where the parts genuinely
#: fan out: the registered two-rank cluster and a four-rank one (more ranks
#: than most sessions here have parts).
SESSION_BACKENDS = {
    "numpy": get_backend("numpy"),
    "chunked": get_backend("chunked"),
    "distributed": get_backend("distributed"),
    "distributed4": DistributedBackend(ranks=4),
}


class _Boom(RuntimeError):
    pass


def _accumulate(payload, state, delta):
    state["acc"] += delta
    return state["acc"].copy()


def _weighted(payload, state, delta):
    state["acc"] += payload["w"] * delta
    return state["acc"].copy()


def _boom(payload, state, delta):
    raise _Boom("task function failed")


def _open_session(backend_name, tag, parts=3, n=16):
    """A session over ``parts`` parts; part ``i`` has ``w = arange(n) + i``."""
    payloads = [{"w": np.arange(n, dtype=np.int64) + part} for part in range(parts)]
    states = [{"acc": np.zeros(n, dtype=np.int64)} for _ in range(parts)]
    return SESSION_BACKENDS[backend_name].map_partitions_resident(
        f"tok/{tag}/{backend_name}", payloads, states
    )


@pytest.mark.parametrize("backend_name", SESSION_BACKENDS)
def test_run_returns_results_in_task_order(backend_name):
    # The tasks of a phase may run in any order or concurrently, but run()
    # returns their results in the order the tasks were listed: the drivers
    # zip them with their live-part lists.
    tasks = [(3, 1), (0, 2), (2, 3), (1, 4)]
    with _open_session(backend_name, "task-order", parts=4) as session:
        results = session.run(_weighted, tasks)
    assert len(results) == len(tasks)
    for (part, delta), got in zip(tasks, results):
        assert np.array_equal(got, (np.arange(16) + part) * delta)


@pytest.mark.parametrize("backend_name", SESSION_BACKENDS)
def test_part_state_carries_across_phases(backend_name):
    # What one phase writes into a part's state is what the next phase of
    # that part reads, wherever the part lives; other parts never see it.
    with _open_session(backend_name, "carry") as session:
        session.run(_weighted, [(0, 1), (1, 2), (2, 3)])
        session.run(_weighted, [(1, 10)])
        results = session.run(_weighted, [(0, 0), (1, 0), (2, 0)])
    w = np.arange(16)
    assert np.array_equal(results[0], w * 1)
    assert np.array_equal(results[1], (w + 1) * 12)
    assert np.array_equal(results[2], (w + 2) * 3)


@pytest.mark.parametrize("backend_name", SESSION_BACKENDS)
def test_accounting_is_logical_and_backend_independent(backend_name):
    # Every session charges the same logical bytes: each part's payload and
    # initial state once at open, then per run the deltas out plus the
    # results back.
    with _open_session(backend_name, "ledger") as session:
        assert session.resident_bytes == 3 * (16 * 8) + 3 * (16 * 8)
        session.run(_weighted, [(0, 1), (2, 1)])
        session.run(_weighted, [(1, np.int32(2))])
        assert session.supersteps == 2
        # Run 1: two 8-byte scalars out, two 128-byte arrays back. Run 2: one
        # 4-byte np.int32 out, one 128-byte array back.
        assert session.superstep_bytes == (16 + 256) + (4 + 128)
        assert session.max_superstep_bytes == 16 + 256


@pytest.mark.parametrize("backend_name", SESSION_BACKENDS)
def test_empty_phase_is_a_superstep_that_ships_nothing(backend_name):
    # A phase with no live parts (kk's Refresh Column once every second
    # worklist has drained) still counts as a superstep, which keeps
    # supersteps equal to phases per round times rounds on every backend.
    with _open_session(backend_name, "empty-phase") as session:
        assert session.run(_weighted, []) == []
        assert session.supersteps == 1
        assert session.superstep_bytes == 0
        assert session.max_superstep_bytes == 0
        (result,) = session.run(_weighted, [(1, 1)])
        assert np.array_equal(result, np.arange(16) + 1)
        assert session.supersteps == 2


@pytest.mark.parametrize("backend_name", SESSION_BACKENDS)
def test_failure_after_committed_phase_keeps_its_counts(backend_name):
    # A run() that raises neither rolls back nor adds to what the earlier
    # phases committed, and the parts it did not touch keep their state.
    with _open_session(backend_name, "phase-errors-after") as session:
        first = session.run(_weighted, [(0, 1), (1, 1)])
        committed = (
            session.supersteps,
            session.superstep_bytes,
            session.max_superstep_bytes,
        )
        with pytest.raises((_Boom, RuntimeError), match="task function failed"):
            session.run(_boom, [(1, 1), (2, 1)])
        assert (
            session.supersteps,
            session.superstep_bytes,
            session.max_superstep_bytes,
        ) == committed
        assert np.array_equal(first[0], np.arange(16))
        (again,) = session.run(_weighted, [(0, 1)])
        assert np.array_equal(again, 2 * np.arange(16))
        assert session.supersteps == committed[0] + 1


@pytest.mark.parametrize("backend_name", SESSION_BACKENDS)
def test_failure_in_committed_singleton_phase_commits_nothing(backend_name):
    # A run() that raises must commit no superstep and no bytes, and the
    # session must recover: the next phase commits cleanly.
    payloads = [{"w": np.arange(16, dtype=np.int64)} for _ in range(3)]
    states = [{"acc": np.zeros(16, dtype=np.int64)} for _ in range(3)]
    session = SESSION_BACKENDS[backend_name].map_partitions_resident(
        f"tok/phase-errors-single/{backend_name}", payloads, states
    )
    with session:
        with pytest.raises((_Boom, RuntimeError), match="task function failed"):
            session.run(_boom, [(0, 1), (1, 1)])
        assert session.supersteps == 0
        assert session.superstep_bytes == 0
        assert session.max_superstep_bytes == 0
        (result,) = session.run(_accumulate, [(0, 1)])
        assert np.array_equal(result, np.ones(16, dtype=np.int64))
        assert session.supersteps == 1
