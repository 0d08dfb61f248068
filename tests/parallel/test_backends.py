"""Tests for the ExecutionBackend registry, selection machinery and backends."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.graph import from_edges, path_graph, random_gnp
from repro.mis import kk_mis2
from repro.parallel import (
    ChunkedBackend,
    ExecutionBackend,
    NumbaBackend,
    NumpyBackend,
    ThreadedBackend,
    available_backends,
    default_backend,
    exclusive_scan,
    get_backend,
    numba_available,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.parallel import backends
from repro.parallel.backends import _REGISTRY


def _graph_mis_size(graph):
    """Module-level so the process-pool test can pickle it."""
    return int(kk_mis2(graph).in_set.size)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == [
            "numpy",
            "chunked",
            "threaded",
            "numba",
            "distributed",
        ]

    def test_get_backend_by_name_and_instance(self):
        np_backend = get_backend("numpy")
        assert isinstance(np_backend, NumpyBackend)
        assert get_backend(np_backend) is np_backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cuda")

    def test_register_rejects_duplicates_and_non_backends(self):
        with pytest.raises(ValueError):
            register_backend(NumpyBackend())
        with pytest.raises(TypeError):
            register_backend("numpy")

    def test_register_overwrite(self):
        original = get_backend("chunked")
        replacement = ChunkedBackend(block_elements=128)
        try:
            register_backend(replacement, overwrite=True)
            assert get_backend("chunked") is replacement
        finally:
            register_backend(original, overwrite=True)


class TestDefaultBackend:
    def test_default_is_numpy(self):
        assert default_backend().name == "numpy"
        assert resolve_backend(None) is default_backend()

    def test_resolve_by_name(self):
        assert resolve_backend("chunked").name == "chunked"

    def test_set_default_backend_context_restores(self):
        before = default_backend()
        with set_default_backend("chunked") as active:
            assert active.name == "chunked"
            assert default_backend().name == "chunked"
            # Kernels called without backend= pick up the scoped default.
            result = kk_mis2(path_graph(8))
            assert result.config.backend == "chunked"
        assert default_backend() is before

    def test_set_default_backend_plain_call(self):
        before = default_backend()
        try:
            set_default_backend("chunked")
            assert default_backend().name == "chunked"
        finally:
            set_default_backend(before)

    def test_context_restores_on_exception(self):
        before = default_backend()
        with pytest.raises(RuntimeError):
            with set_default_backend("chunked"):
                raise RuntimeError("boom")
        assert default_backend() is before


class TestChunkedBackend:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ChunkedBackend(block_elements=0)
        with pytest.raises(ValueError):
            ChunkedBackend(processes=0)

    def test_segment_blocks_never_split_segments(self):
        B = ChunkedBackend(block_elements=4)
        # Segment lengths 3, 3, 10, 1: the 10-element segment exceeds the block
        # size and must still land in a block of its own.
        seg = exclusive_scan(np.array([3, 3, 10, 1]))
        blocks = B._segment_blocks(seg)
        assert blocks[0] == (0, 1) or blocks[0] == (0, 2)
        covered = []
        for s, e in blocks:
            assert s < e
            covered.extend(range(s, e))
        assert covered == [0, 1, 2, 3]

    def test_chunked_scan_matches_reference_int(self):
        B = ChunkedBackend(block_elements=7)
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 100, size=1000)
        assert np.array_equal(B.exclusive_scan(vals), exclusive_scan(vals))
        assert np.array_equal(B.inclusive_scan(vals), np.cumsum(vals))
        assert B.exclusive_scan(vals).dtype == exclusive_scan(vals).dtype

    def test_chunked_scan_floats_delegate(self):
        B = ChunkedBackend(block_elements=7)
        vals = np.linspace(0.0, 1.0, 100)
        assert np.array_equal(B.exclusive_scan(vals), exclusive_scan(vals))

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int32, np.int64, np.bool_])
    @pytest.mark.parametrize("size", [7, 8, 9, 100])
    def test_chunked_scan_dtype_independent_of_size(self, dtype, size):
        # Regression: the blocked path used to force int64 while inputs below
        # block_elements took the reference's promoted dtype (uint64 for
        # unsigned inputs), so the output dtype flipped at the block boundary.
        B = ChunkedBackend(block_elements=8)
        vals = (np.arange(size) % 3).astype(dtype)
        ref_inc = np.cumsum(vals)
        out_inc = B.inclusive_scan(vals)
        assert out_inc.dtype == ref_inc.dtype, (dtype, size)
        assert np.array_equal(out_inc, ref_inc)
        ref_exc = exclusive_scan(vals)
        out_exc = B.exclusive_scan(vals)
        assert out_exc.dtype == ref_exc.dtype, (dtype, size)
        assert np.array_equal(out_exc, ref_exc)

    def test_chunked_compact_matches_reference(self):
        B = ChunkedBackend(block_elements=16)
        rng = np.random.default_rng(1)
        items = rng.integers(0, 1000, size=500)
        keep = rng.random(500) < 0.3
        assert np.array_equal(B.stream_compact(items, keep), items[keep])

    def test_chunked_expand_rows_matches_reference(self):
        B = ChunkedBackend(block_elements=8)
        ref = NumpyBackend()
        g = random_gnp(150, 0.05, seed=5)
        rows = np.arange(g.num_vertices, dtype=np.int64)
        s_ref, seg_ref = ref.expand_rows(g.rowmap, rows)
        s_chk, seg_chk = B.expand_rows(g.rowmap, rows)
        assert np.array_equal(s_ref, s_chk)
        assert np.array_equal(seg_ref, seg_chk)

    def test_map_graphs_process_pool_preserves_order(self):
        graphs = [random_gnp(40, 0.1, seed=s) for s in range(4)]
        serial = NumpyBackend().map_graphs(_graph_mis_size, graphs)
        pooled = ChunkedBackend(processes=2).map_graphs(_graph_mis_size, graphs)
        inline = ChunkedBackend(processes=1).map_graphs(_graph_mis_size, graphs)
        assert pooled == serial == inline

    def test_error_paths_match_reference(self):
        B = ChunkedBackend(block_elements=4)
        with pytest.raises(ValueError):
            B.stream_compact(np.array([1, 2]), np.array([True]))
        with pytest.raises(ValueError):
            B.exclusive_scan(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            B.segmented_lexmin([], np.array([0]), [])


class TestThreadedBackend:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ThreadedBackend(threads=0)

    def test_map_graphs_thread_pool_preserves_order(self):
        graphs = [random_gnp(40, 0.1, seed=s) for s in range(4)]
        serial = NumpyBackend().map_graphs(_graph_mis_size, graphs)
        pooled = ThreadedBackend(threads=3).map_graphs(_graph_mis_size, graphs)
        inline = ThreadedBackend(threads=1).map_graphs(_graph_mis_size, graphs)
        assert pooled == serial == inline

    def test_primitives_are_the_reference(self):
        # The threaded backend accelerates only map_graphs; per-graph primitives
        # delegate to the NumPy reference, so equivalence is structural.
        B = ThreadedBackend()
        vals = np.arange(20)
        assert np.array_equal(B.exclusive_scan(vals), exclusive_scan(vals))

    def test_requestable_by_name(self):
        result = kk_mis2(path_graph(8), backend="threaded")
        assert result.config.backend == "threaded"


class TestWithJobs:
    def test_serial_backends_ignore_jobs(self):
        B = NumpyBackend()
        assert B.with_jobs(4) is B
        assert B.with_jobs(None) is B

    def test_chunked_clone_keeps_block_size(self):
        B = ChunkedBackend(block_elements=512)
        clone = B.with_jobs(3)
        assert clone is not B
        assert clone.processes == 3
        assert clone.block_elements == 512
        assert B.processes is None  # registered instance untouched
        assert B.with_jobs(None) is B

    def test_threaded_clone(self):
        B = ThreadedBackend()
        clone = B.with_jobs(2)
        assert clone is not B
        assert clone.threads == 2
        assert B.threads is None


class TestNumbaBackend:
    def test_reports_availability(self):
        B = NumbaBackend()
        assert B.available == numba_available()

    def test_degrades_to_numpy_reference(self):
        # Whether or not numba is installed, results must equal the reference.
        B = NumbaBackend()
        ref = NumpyBackend()
        rng = np.random.default_rng(2)
        lens = rng.integers(0, 6, size=50)
        seg = exclusive_scan(lens)
        values = rng.integers(0, 1000, size=int(seg[-1])).astype(np.uint64)
        ident = np.uint64(2**64 - 1)
        assert np.array_equal(
            B.segmented_min(values, seg, ident), ref.segmented_min(values, seg, ident)
        )
        assert np.array_equal(
            B.segmented_max(values, seg, np.uint64(0)),
            ref.segmented_max(values, seg, np.uint64(0)),
        )
        assert np.array_equal(B.segmented_sum(values, seg), ref.segmented_sum(values, seg))

    def test_requestable_by_name_without_numba(self):
        result = kk_mis2(from_edges(5, [(0, 1), (1, 2), (3, 4)]), backend="numba")
        assert result.config.backend == "numba"

    def test_float_nan_matches_nan_propagating_reference(self):
        # Regression: the jitted </> comparison loops skip NaN (NaN < x is
        # False), diverging from the reference's np.minimum/np.maximum, which
        # propagate it. Float inputs must delegate to the reference.
        B = NumbaBackend()
        ref = NumpyBackend()
        values = np.array([1.0, np.nan, 3.0, 2.0, np.nan, 0.5])
        seg = np.array([0, 3, 6], dtype=np.int64)
        for op in ("segmented_min", "segmented_max"):
            out = getattr(B, op)(values, seg, np.inf)
            expect = getattr(ref, op)(values, seg, np.inf)
            assert out.dtype == expect.dtype
            assert np.array_equal(out, expect, equal_nan=True)
            assert np.isnan(out).all()  # every segment contains a NaN
        assert np.array_equal(
            B.segmented_sum(values, seg), ref.segmented_sum(values, seg), equal_nan=True
        )

    def test_float_without_nan_matches_reference(self):
        B = NumbaBackend()
        ref = NumpyBackend()
        rng = np.random.default_rng(3)
        values = rng.random(40)
        seg = exclusive_scan(np.array([5, 0, 10, 25]))
        assert np.array_equal(
            B.segmented_min(values, seg, np.inf), ref.segmented_min(values, seg, np.inf)
        )
        assert np.array_equal(
            B.segmented_max(values, seg, -np.inf), ref.segmented_max(values, seg, -np.inf)
        )

    def test_empty_input_dtype_matches_reference(self):
        # Regression: the empty-input output dtype must be the reference's
        # identity-derived choice, not a JIT-path variant.
        B = NumbaBackend()
        ref = NumpyBackend()
        empty = np.zeros(0, dtype=np.uint64)
        seg = np.array([0, 0, 0], dtype=np.int64)
        for identity in (np.uint64(2**64 - 1), 7, 1.5):
            out = B.segmented_min(empty, seg, identity)
            expect = ref.segmented_min(empty, seg, identity)
            assert out.dtype == expect.dtype, identity
            assert np.array_equal(out, expect)
        out_sum = B.segmented_sum(empty, seg)
        expect_sum = ref.segmented_sum(empty, seg)
        assert out_sum.dtype == expect_sum.dtype
        assert np.array_equal(out_sum, expect_sum)
        # Zero segments with non-empty values: output is empty but typed.
        values = np.arange(4, dtype=np.int64)
        none = np.array([0], dtype=np.int64)
        assert B.segmented_min(values, none, 0).dtype == ref.segmented_min(values, none, 0).dtype


def _install(token, part, payload, session_key, state):
    """Shorthand for the worker-side install task, called in-process."""
    return backends._resident_install((token, part, payload, session_key, state))


class TestResidentInstallEviction:
    """Regression tests for the LRU eviction scan of ``_resident_install``."""

    @pytest.fixture(autouse=True)
    def _isolated_store(self, monkeypatch):
        monkeypatch.setattr(backends, "_RESIDENT_PAYLOADS", OrderedDict())
        monkeypatch.setattr(backends, "_RESIDENT_STATES", {})
        monkeypatch.setattr(backends, "_RESIDENT_PAYLOAD_CAPACITY", 3)

    def test_protected_head_entry_does_not_block_eviction(self):
        # Interleave two tokens past capacity so the installing token's own
        # entry sits at the LRU head when capacity is exceeded. The eviction
        # scan used to *stop* at that protected head entry, leaving the store
        # over capacity with token B's stale payloads parked behind it forever.
        _install("A", 0, "pA0", 1, "sA0")
        _install("B", 0, "pB0", 2, "sB0")
        _install("B", 1, "pB1", 2, "sB1")
        _install("A", 1, "pA1", 1, "sA1")  # head is now ("A", 0): protected
        store = backends._RESIDENT_PAYLOADS
        assert len(store) <= backends._RESIDENT_PAYLOAD_CAPACITY
        # The oldest *other-token* entry was evicted; A's entries survive.
        assert ("B", 0) not in store
        assert set(store) == {("A", 0), ("B", 1), ("A", 1)}

    def test_installing_token_never_evicts_its_own_parts(self):
        # A session with more parts than capacity must keep every one of its
        # own payloads resident (over capacity is the lesser evil — evicting a
        # live session's parts would make it thrash within a single superstep).
        for part in range(5):
            _install("A", part, f"p{part}", 1, f"s{part}")
        store = backends._RESIDENT_PAYLOADS
        assert set(store) == {("A", part) for part in range(5)}

    def test_eviction_is_oldest_first_among_unprotected(self):
        _install("B", 0, "pB0", 2, "sB0")
        _install("C", 0, "pC0", 3, "sC0")
        _install("B", 1, "pB1", 2, "sB1")
        _install("A", 0, "pA0", 1, "sA0")
        assert ("B", 0) not in backends._RESIDENT_PAYLOADS  # oldest went first
        assert ("C", 0) in backends._RESIDENT_PAYLOADS


# ---- worker-side helpers for the payload-miss retry tests (module level so
# ---- the single-worker slot pool can unpickle them by reference)

def _drop_payload(args):
    """Worker task: evict one payload behind the coordinator's back."""
    token, part = args
    backends._RESIDENT_PAYLOADS.pop((token, part), None)
    return True


_FLAKY_RESTORE_FAILURES = 0

# Bound at import time: a slot worker forked while the coordinator's
# monkeypatch is active would otherwise resolve the patched module attribute
# and recurse into the stand-in instead of the real restore.
_REAL_RESTORE = backends._resident_restore_payload


def _arm_flaky_restore(failures):
    """Worker task: make the next ``failures`` restores silently do nothing."""
    global _FLAKY_RESTORE_FAILURES
    _FLAKY_RESTORE_FAILURES = failures
    return True


def _flaky_restore(args):
    """Worker task standing in for ``_resident_restore_payload``: drops the
    first N restore requests on the floor (as if a concurrent session re-evicted
    the payload between the restore and the retry), then behaves normally."""
    global _FLAKY_RESTORE_FAILURES
    if _FLAKY_RESTORE_FAILURES > 0:
        _FLAKY_RESTORE_FAILURES -= 1
        return True
    return _REAL_RESTORE(args)


def _never_restore(args):
    """Worker task: every restore is lost — the exhaustion path."""
    return True


def _double_state(payload, state, delta):
    state["x"] = state["x"] * 2 + delta
    return state["x"].copy()


class TestPinnedSessionMissRetry:
    """The `_ResidentPayloadMiss` recovery must survive repeated evictions."""

    def _session(self):
        payloads = [{"w": np.arange(3)}]
        states = [{"x": np.ones(3, dtype=np.int64)}]
        return backends._PinnedResidentSession(
            f"tok/miss-retry/{next(backends._RESIDENT_SESSION_KEYS)}",
            payloads,
            states,
            width=1,
        )

    def test_double_eviction_recovers(self, monkeypatch):
        # Force the phase to miss, then make the first restore vanish too (a
        # concurrent session re-evicting between restore and retry). The old
        # single-shot recovery surfaced the second miss as a raw failure; the
        # bounded loop must recover and produce the right result.
        monkeypatch.setattr(backends, "_resident_restore_payload", _flaky_restore)
        with self._session() as session:
            pool = backends._resident_slot(0)
            pool.submit(_drop_payload, (session.token, 0)).result()
            pool.submit(_arm_flaky_restore, 1).result()
            (result,) = session.run(_double_state, [(0, 5)])
        assert np.array_equal(result, np.ones(3, dtype=np.int64) * 2 + 5)

    def test_exhaustion_raises_clear_error(self, monkeypatch):
        monkeypatch.setattr(backends, "_resident_restore_payload", _never_restore)
        with self._session() as session:
            backends._resident_slot(0).submit(
                _drop_payload, (session.token, 0)
            ).result()
            with pytest.raises(RuntimeError, match="evicted again after each of"):
                session.run(_double_state, [(0, 5)])


def test_every_registered_backend_is_an_execution_backend():
    for name in available_backends():
        assert isinstance(_REGISTRY[name], ExecutionBackend)
        assert _REGISTRY[name].name == name


# ------------------------------------------------------------ session contract

#: Every session implementation: in-process, thread pool, pinned slot workers
#: and socket ranks, each two wide so the parts genuinely fan out.
SESSION_BACKENDS = ["numpy", "threaded", "chunked", "distributed"]


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
    """A two-wide session over ``parts`` parts; part ``i`` has ``w = arange(n) + i``."""
    payloads = [{"w": np.arange(n, dtype=np.int64) + part} for part in range(parts)]
    states = [{"acc": np.zeros(n, dtype=np.int64)} for _ in range(parts)]
    return get_backend(backend_name).with_jobs(2).map_partitions_resident(
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
    session = get_backend(backend_name).with_jobs(2).map_partitions_resident(
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
