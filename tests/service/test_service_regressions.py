"""Regression tests for the defects the static contract checker surfaced.

The analyzer (repro.analysis) flagged: bare-set iteration seeding the repair
heaps, unlocked reads of the service stats, torn per-entry reads in
``health()``, and an unguarded ``_closed`` flag. Each fix is pinned here,
along with the first write that silently rewrote a non-canonical graph.
"""

import threading

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edges
from repro.service import GraphService, ServiceClosed
from repro.service.repair import (
    mis_keys,
    ordered_color,
    repair_mis2,
    repair_ordered_color,
    serial_mis2_mask,
)


def _ring(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ------------------------------------------------- repair heap determinism
def test_repair_mis2_invariant_under_dirty_permutation_and_duplicates():
    """The worklist heap is seeded from np.unique order, not set-hash order:
    any permutation (with duplicates) of the same dirty set must evaluate the
    same vertices in the same order — identical results AND touched counts."""
    graph = _ring(24)
    keys = mis_keys(24, seed=3)
    prev = serial_mis2_mask(graph, keys)
    dirty = np.arange(0, 12, dtype=np.int64)
    rng = np.random.default_rng(7)

    base = repair_mis2(graph, keys, prev, dirty)
    assert base is not None
    base_mask, base_touched = base
    for _ in range(5):
        shuffled = rng.permutation(np.concatenate([dirty, dirty[::2]]))
        result = repair_mis2(graph, keys, prev, shuffled)
        assert result is not None
        mask, touched = result
        assert np.array_equal(mask, base_mask)
        assert touched == base_touched


def test_repair_color_invariant_under_dirty_permutation_and_duplicates():
    graph = _ring(24)
    keys = mis_keys(24, seed=5)
    prev = ordered_color(graph, keys)
    dirty = np.arange(6, 18, dtype=np.int64)
    rng = np.random.default_rng(11)

    base = repair_ordered_color(graph, keys, prev, dirty)
    assert base is not None
    base_colors, base_touched = base
    for _ in range(5):
        shuffled = rng.permutation(np.concatenate([dirty, dirty[1::2]]))
        result = repair_ordered_color(graph, keys, prev, shuffled)
        assert result is not None
        colors, touched = result
        assert np.array_equal(colors, base_colors)
        assert touched == base_touched


# ----------------------------------------------------------- stats snapshot
def test_stats_snapshot_matches_counters_and_is_a_copy():
    with GraphService() as svc:
        svc.add_graph("g", _ring(12))
        svc.mis2("g")
        svc.mis2("g")  # cache hit
        snap = svc.stats_snapshot()
        assert snap["queries"] == 2
        assert snap["cache_hits"] == 1
        snap["queries"] = 999  # a copy, not a live view
        assert svc.stats_snapshot()["queries"] == 2


def test_stats_snapshot_is_consistent_under_concurrent_queries():
    """queries >= full_recomputes + cache_hits must hold in every snapshot;
    an unlocked read could observe the bumped sub-counter before queries."""
    with GraphService() as svc:
        svc.add_graph("g", _ring(16))
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                svc.mis2("g")

        workers = [threading.Thread(target=hammer) for _ in range(3)]
        for t in workers:
            t.start()
        try:
            for _ in range(200):
                snap = svc.stats_snapshot()
                assert snap["queries"] >= snap["full_recomputes"] + snap["cache_hits"]
        finally:
            stop.set()
            for t in workers:
                t.join()


# ------------------------------------------------------------ health snapshot
def test_health_is_never_torn_under_concurrent_mutation():
    """Appending one vertex per epoch makes ``vertices == 8 + epoch`` an
    invariant; reading graph and epoch without the entry lock could pair the
    new graph with the old epoch."""
    with GraphService() as svc:
        svc.add_graph("g", _ring(8))
        done = threading.Event()

        def mutate():
            for _ in range(120):
                svc.add_vertices("g", 1)
            done.set()

        thread = threading.Thread(target=mutate)
        thread.start()
        try:
            while not done.is_set():
                info = svc.health()["graphs"]["g"]
                assert info["vertices"] == 8 + info["epoch"]
        finally:
            thread.join()
        info = svc.health()["graphs"]["g"]
        assert info["epoch"] == 120 and info["vertices"] == 128


# ------------------------------------------------------------------- closing
def test_concurrent_close_is_idempotent_and_rejects_new_work():
    svc = GraphService()
    svc.add_graph("g", _ring(8))
    barrier = threading.Barrier(6)

    def closer():
        barrier.wait()
        svc.close()

    threads = [threading.Thread(target=closer) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert svc.health()["closed"] is True
    with pytest.raises(ServiceClosed):
        svc.mis2("g")
    svc.close()  # still idempotent after the fact


class _StallingQueue:
    """The service queue, with every request's ``put`` held until
    ``release`` is set: a ``submit`` stalled between its open check and its
    enqueue."""

    def __init__(self, inner):
        self.inner = inner
        self.stalled = threading.Event()
        self.release = threading.Event()
        self.sentinel = threading.Event()

    def put(self, item):
        if item is None:
            self.sentinel.set()
        else:
            self.stalled.set()
            self.release.wait(timeout=10)
        self.inner.put(item)

    def get(self):
        return self.inner.get()

    def get_nowait(self):
        return self.inner.get_nowait()


def test_submit_racing_close_raises_or_resolves():
    """A request enqueued after close() put its stop sentinel was never
    drained, so its future never resolved. The open check and the enqueue
    are now one step, which close() waits for."""
    svc = GraphService()
    svc.add_graph("g", _ring(8))
    stall = svc._queue = _StallingQueue(svc._queue)
    outcome = {}

    def submit():
        try:
            outcome["future"] = svc.submit("g", "mis2")
        except ServiceClosed as exc:
            outcome["closed"] = exc

    submitter = threading.Thread(target=submit)
    submitter.start()
    assert stall.stalled.wait(timeout=10)
    closer = threading.Thread(target=svc.close)
    closer.start()
    # Give close() the time to enqueue its sentinel if it can get past the
    # stalled submit.
    stall.sentinel.wait(timeout=0.5)
    stall.release.set()
    submitter.join(timeout=10)
    closer.join(timeout=10)
    assert not submitter.is_alive() and not closer.is_alive()
    if "closed" not in outcome:
        assert isinstance(outcome["future"].result(timeout=2), np.ndarray)
    assert svc.health()["closed"] is True


# ------------------------------------------------------- canonical held graph
#: The path 0-1-2-3 stored non-canonically: with a self-loop on vertex 1,
#: with rows 1 and 2 unsorted, and with vertex 2 twice in row 1.
_NON_CANONICAL = {
    "self-loop": ([0, 1, 4, 6, 7], [1, 0, 1, 2, 1, 3, 2]),
    "unsorted-rows": ([0, 1, 3, 5, 6], [1, 2, 0, 3, 1, 2]),
    "duplicate-entry": ([0, 1, 4, 6, 7], [1, 0, 2, 2, 1, 3, 2]),
}


@pytest.mark.parametrize("stored", sorted(_NON_CANONICAL))
@pytest.mark.parametrize(
    "writes",
    [
        [("add_edges", (0, 3)), ("remove_edges", (0, 3))],
        [("remove_edges", (1, 2)), ("add_edges", (2, 1))],
    ],
    ids=["add-remove", "remove-add"],
)
def test_net_zero_writes_restore_the_epoch0_graph(stored, writes):
    """Every write used to rebuild the graph, so the first one silently
    dropped the self-loop (sorted the rows, merged the duplicate) the epoch-0
    answers were computed on. ``add_graph`` now canonicalises once, up
    front."""
    with GraphService() as svc:
        svc.add_graph("g", CSRGraph(*_NON_CANONICAL[stored]))
        held = svc.graph("g")
        assert held == from_edges(4, [(0, 1), (1, 2), (2, 3)])
        for kind, edge in writes:
            assert getattr(svc, kind)("g", [edge]) == 1
        assert svc.epoch("g") == len(writes)
        assert svc.graph("g") == held


def test_canonical_graph_is_held_as_the_same_object():
    """``add_graph`` copies only a graph it must canonicalise."""
    graph = _ring(12)
    with GraphService() as svc:
        svc.add_graph("g", graph)
        assert svc.graph("g") is graph
