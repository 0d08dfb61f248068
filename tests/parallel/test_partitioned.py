"""Unit tests for :mod:`repro.parallel.partitioned` (layout + drivers + seam)."""

import numpy as np
import pytest

from repro.coarsen import mis2_aggregation
from repro.coloring import greedy_color
from repro.graph import (
    cycle_graph,
    empty_graph,
    from_edges,
    grid2d,
    laplace3d,
    path_graph,
    random_gnp,
    rmat,
)
from repro.mis import kk_mis2
from repro.parallel import (
    DistributedBackend,
    NumpyBackend,
    build_partition_layout,
    get_backend,
    partition_vertices,
    partitioned_kk_mis2,
    shipped_nbytes,
)


def _counts(stats):
    """The deterministic fields of a ``PartitionStats`` (not the wall-clock)."""
    return {k: v for k, v in stats.to_dict().items() if not k.endswith("_seconds")}


class TestPartitionVertices:
    def test_single_part(self):
        g = path_graph(6)
        assert np.array_equal(partition_vertices(g, 1), np.zeros(6, dtype=np.int64))

    def test_power_of_two_uses_multilevel(self):
        g = grid2d(6, 6)
        labels = partition_vertices(g, 4)
        assert labels.shape == (36,)
        assert set(np.unique(labels)) <= {0, 1, 2, 3}

    def test_non_power_of_two_blocks_are_balanced(self):
        g = empty_graph(10)
        labels = partition_vertices(g, 3)
        sizes = np.bincount(labels, minlength=3)
        assert sizes.sum() == 10
        assert sizes.max() - sizes.min() <= 1

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            partition_vertices(path_graph(4), 0)

    def test_empty_graph(self):
        assert partition_vertices(empty_graph(0), 5).size == 0


class TestBuildLayout:
    def test_path_split_in_half(self):
        g = path_graph(6)
        layout = build_partition_layout(g, np.array([0, 0, 0, 1, 1, 1]))
        assert layout.num_parts == 2
        assert layout.cut_edges == 1
        left, right = layout.parts
        assert np.array_equal(left.owned, [0, 1, 2])
        assert np.array_equal(left.halo, [3])
        assert np.array_equal(left.boundary(), [2])
        assert np.array_equal(left.interior(), [0, 1])
        assert np.array_equal(right.halo, [2])
        assert np.array_equal(right.boundary(), [3])
        # Local CSR: owned rows carry adjacency, halo rows are empty.
        assert left.rowmap.size == left.ids.size + 1
        halo_local = left.local(left.halo)
        for h in halo_local:
            assert left.rowmap[h] == left.rowmap[h + 1]
        # Local entries resolve back to the global neighbours.
        v_local = int(left.local(np.array([2]))[0])
        nbrs = left.entries[left.rowmap[v_local]: left.rowmap[v_local + 1]]
        assert set(left.ids[nbrs].tolist()) == {1, 3}

    def test_layout_passthrough(self):
        g = path_graph(4)
        layout = build_partition_layout(g, 2)
        assert build_partition_layout(g, layout) is layout

    @pytest.mark.parametrize(
        "kernel", [kk_mis2, greedy_color, mis2_aggregation],
        ids=["kk", "color", "mis2_agg"],
    )
    @pytest.mark.parametrize(
        "graph, other, match",
        [
            (path_graph(20), path_graph(10), "covers 10 vertices"),
            (random_gnp(30, 0.2, seed=2), random_gnp(30, 0.2, seed=1), "another graph"),
            # Both 2-regular: only the neighbour ids tell the graphs apart.
            (from_edges(8, [(v, (v + 3) % 8) for v in range(8)]), cycle_graph(8), "another graph"),
        ],
        ids=["different-size", "same-size", "same-degrees"],
    )
    def test_layout_of_another_graph_rejected(self, kernel, graph, other, match):
        # Regression: a prebuilt layout was used unchecked, so another graph's
        # layout returned a wrong MIS / coloring or failed deep in the kernel.
        layout = build_partition_layout(other, 2)
        with pytest.raises(ValueError, match=match):
            kernel(graph, partitions=layout)

    def test_layout_of_an_equal_graph_accepted(self):
        g = random_gnp(30, 0.2, seed=1)
        layout = build_partition_layout(g, 2)
        copy = g.copy()
        assert build_partition_layout(copy, layout) is layout
        assert np.array_equal(kk_mis2(copy, partitions=layout).in_set, kk_mis2(g).in_set)

    @pytest.mark.parametrize(
        "labels, match",
        [
            (np.array([0, 1, 0, 1]), "one entry per vertex"),
            (np.array([0, -1, 0, 1, 0, 1]), "non-negative"),
            # Regression: an int64 cast ran these float labels as parts
            # [0, 0, 1, 1, 2, 2] and bool labels as parts 0/1.
            (np.array([0.2, 0.9, 1.7, 1.1, 2.5, 2.0]), "integer per-vertex label array"),
            (np.array([True, False, True, False, True, False]), "integer per-vertex label array"),
            (2.0, "must be a part count"),
            (True, "must be a part count"),
        ],
        ids=["short", "negative", "float-labels", "bool-labels", "float-count", "bool-count"],
    )
    def test_rejects_bad_labels(self, labels, match):
        with pytest.raises(ValueError, match=match):
            build_partition_layout(path_graph(6), labels)

    def test_accepts_integer_label_lists(self):
        assert build_partition_layout(path_graph(4), [0, 0, 1, 1]).num_parts == 2
        assert build_partition_layout(empty_graph(0), []).num_parts == 1

    def test_empty_parts_allowed(self):
        g = path_graph(4)
        layout = build_partition_layout(g, np.array([0, 0, 3, 3]))
        assert layout.num_parts == 4
        assert layout.parts[1].num_owned == 0
        assert layout.parts[1].num_halo == 0

    def test_sparse_labels_rejected(self):
        # Hash-like labels would materialise max(label)+1 shards; refuse early.
        g = path_graph(4)
        with pytest.raises(ValueError, match="dense part ids"):
            build_partition_layout(g, np.array([0, 10**8, 0, 1]))

    def test_stats_accounting(self):
        g = grid2d(4, 4)
        layout = build_partition_layout(g, 4)
        stats = layout.stats(supersteps=9)
        assert stats.num_parts == 4
        assert stats.supersteps == 9
        assert stats.interior_vertices + stats.boundary_vertices == 16
        assert stats.cut_edges == layout.cut_edges
        assert stats.to_dict()["halo_vertices"] == layout.halo_vertices
        # Without a session the shipped-bytes fields default to zero.
        assert stats.resident_bytes == 0 and stats.superstep_bytes == 0
        assert "max_superstep_bytes" in stats.to_dict()

    def test_local_rejects_non_member_vertices(self):
        # Regression: a bare searchsorted silently mapped foreign global ids
        # onto arbitrary local indices; membership is now checked.
        g = path_graph(6)
        layout = build_partition_layout(g, np.array([0, 0, 0, 1, 1, 1]))
        left = layout.parts[0]
        # ids of part 0 are {0, 1, 2, 3 (halo)}; 5 is not local.
        with pytest.raises(ValueError, match="not local to part 0"):
            left.local(np.array([5]))
        # An id between members (4) and one past the end both fail.
        with pytest.raises(ValueError, match="not local"):
            left.local(np.array([0, 4]))
        with pytest.raises(ValueError, match="not local"):
            left.local(np.array([99]))
        # Valid queries (owned and halo) still resolve.
        assert np.array_equal(left.local(left.ids), np.arange(left.ids.size))
        # Empty query is fine.
        assert left.local(np.zeros(0, dtype=np.int64)).size == 0

    def test_part_count_reuses_the_graphs_layout(self):
        g = grid2d(6, 6)
        a = build_partition_layout(g, 4)
        assert build_partition_layout(g, 4) is a
        assert build_partition_layout(g, np.int64(4)) is a
        # The kernels resolve partitions=4 to the same layout.
        stats = [kk_mis2(g, partitions=spec).partition_stats for spec in (4, a)]
        assert _counts(stats[0]) == _counts(stats[1])

    def test_other_count_copy_and_unpickled_graph_get_their_own_layouts(self):
        import pickle

        g = grid2d(6, 6)
        a = build_partition_layout(g, 4)
        others = [
            build_partition_layout(g, 2),
            build_partition_layout(g.copy(), 4),
            build_partition_layout(pickle.loads(pickle.dumps(g)), 4),
        ]
        assert len({a.token, *(layout.token for layout in others)}) == 4
        # An equal graph partitions the same way; only the identity differs.
        assert np.array_equal(others[1].labels, a.labels)
        assert build_partition_layout(g, 4) is a

    def test_racing_first_calls_share_one_layout(self):
        # Threads racing on a fresh graph's first build all receive the one
        # layout the graph keeps; a plain store would hand the losers layouts
        # (and tokens) that the graph does not hold.
        import sys
        import threading

        g = grid2d(12, 12)
        workers = 8
        barrier = threading.Barrier(workers)
        got = []

        def build():
            barrier.wait(timeout=10)
            got.append(build_partition_layout(g, 4))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == workers
        assert all(layout is g._layouts[4] for layout in got)

    def test_label_array_builds_a_fresh_layout_every_time(self):
        g = path_graph(4)
        labels = np.array([0, 0, 1, 1])
        a = build_partition_layout(g, labels)
        b = build_partition_layout(g, labels)
        assert a is not b and a.token != b.token
        assert np.array_equal(a.labels, b.labels)
        assert build_partition_layout(g, 2).token not in (a.token, b.token)
        # The caller's labels are not frozen by the build.
        assert labels.flags.writeable

    def test_stored_layout_arrays_are_read_only(self):
        g = grid2d(5, 5)
        layout = build_partition_layout(g, 2)
        with pytest.raises(ValueError):
            layout.labels[0] = 1
        for part in layout.parts:
            for name in ("owned", "halo", "ids", "owned_local", "interior_mask",
                         "rowmap", "entries"):
                assert not getattr(part, name).flags.writeable, name
        with pytest.raises(ValueError):
            layout.parts[0].entries[0] = 0

    def test_failed_build_stores_nothing(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            build_partition_layout(g, 0)
        with pytest.raises(ValueError, match="dense part ids"):
            build_partition_layout(g, 10**6)
        assert g._layouts == {}


class TestDrivers:
    def test_single_part_degenerates_to_reference(self):
        g = random_gnp(40, 0.1, seed=5)
        ref = kk_mis2(g)
        out = kk_mis2(g, partitions=1)
        assert np.array_equal(ref.in_set, out.in_set)
        assert out.partition_stats.boundary_vertices == 0
        assert out.partition_stats.cut_edges == 0

    def test_empty_graph_all_drivers(self):
        g = empty_graph(0)
        assert kk_mis2(g, partitions=3).in_set.size == 0
        assert greedy_color(g, partitions=3).num_colors == 0

    def test_worklist_ablation_rejected(self):
        with pytest.raises(ValueError):
            kk_mis2(path_graph(4), partitions=2, use_worklists=False)

    def test_partitioned_driver_direct_call(self):
        g = grid2d(5, 5)
        out = partitioned_kk_mis2(g, 4, backend="numpy")
        assert np.array_equal(out.in_set, kk_mis2(g).in_set)
        assert out.config.partitions == 4

    def test_config_and_stats_recorded(self):
        g = grid2d(5, 5)
        out = kk_mis2(g, partitions=2, backend="distributed")
        assert out.config.partitions == 2
        assert out.partition_stats.supersteps == 3 * out.iterations
        coloring = greedy_color(g, partitions=2)
        assert coloring.partitions == 2
        assert coloring.partition_stats.supersteps == 2 * coloring.rounds
        # Halo traffic is recorded only in partition_stats; the traffic
        # counter holds no kernels.
        assert out.traffic.kernels == []

    def test_unpartitioned_results_have_default_fields(self):
        g = path_graph(5)
        mis = kk_mis2(g)
        assert mis.config.partitions == 1
        assert mis.partition_stats is None
        coloring = greedy_color(g)
        assert coloring.partitions == 1
        assert coloring.partition_stats is None

    def test_stats_timing_triple_present_and_finite(self):
        g = grid2d(6, 6)
        stats = kk_mis2(g, partitions=build_partition_layout(g, 2)).partition_stats
        for key in ("compute_seconds", "exchange_seconds", "idle_seconds"):
            value = stats.to_dict()[key]
            assert isinstance(value, float) and value >= 0.0


class TestColoringFrontier:
    """Which coloring phases recompute only the frontier of what changed.
    The bit-identity tests on these graphs cover both regimes only while
    both occur: meshes and paths settle a thin wavefront a round, random
    and power-law graphs change most of the worklist every round."""

    @staticmethod
    def _frontier_phases(monkeypatch, g, parts):
        """One bool per phase after round 0: True when it ran the frontier."""
        from repro.parallel import partitioned as P

        kinds = []
        near = P._color_near

        def recording(payload, state, view, halo, rows, also=None):
            result = near(payload, state, view, halo, rows, also)
            kinds.append(result is not None)
            return result

        monkeypatch.setattr(P, "_color_near", recording)
        out = greedy_color(g, partitions=parts)
        assert np.array_equal(out.colors, greedy_color(g).colors)
        return kinds

    @pytest.mark.parametrize(
        "graph",
        [grid2d(30, 30), path_graph(200), laplace3d(8, 8, 8)],
        ids=["grid30x30", "path200", "laplace3d-8"],
    )
    @pytest.mark.parametrize("parts", [3, 4])
    def test_meshes_take_frontier_and_whole_worklist_phases(self, monkeypatch, graph, parts):
        kinds = self._frontier_phases(monkeypatch, graph, parts)
        assert any(kinds) and not all(kinds)

    @pytest.mark.parametrize(
        "graph", [rmat(10), random_gnp(400, 0.02, seed=2)], ids=["rmat10", "gnp400"]
    )
    @pytest.mark.parametrize("parts", [3, 4])
    def test_random_graphs_recompute_the_whole_worklist(self, monkeypatch, graph, parts):
        kinds = self._frontier_phases(monkeypatch, graph, parts)
        assert kinds and not any(kinds)


class TestResidentSessions:
    """The rank-resident seam: ship the payload once, deltas per superstep."""

    @staticmethod
    def _payloads_states(k=3, size=100):
        payloads = [{"base": np.full(size, i, dtype=np.int64)} for i in range(k)]
        states = [{"acc": np.zeros(4, dtype=np.int64)} for _ in range(k)]
        return payloads, states

    def test_base_session_executes_and_mutates_state(self):
        payloads, states = self._payloads_states()
        session = NumpyBackend().map_partitions_resident("tok", payloads, states)
        outs = session.run(_resident_add, [(0, 5), (2, 7)])
        assert outs == [0 + 5, 2 + 7]
        # State mutation is retained across supersteps.
        outs = session.run(_resident_add, [(0, 1)])
        assert outs == [0 + 5 + 1]
        assert states[0]["acc"][0] == 6 and states[2]["acc"][0] == 7
        session.close()

    def test_accounting_charges_payload_once_and_both_directions(self):
        payloads, states = self._payloads_states(k=2, size=50)
        per_payload = shipped_nbytes(payloads[0])
        per_state = shipped_nbytes(states[0])
        session = NumpyBackend().map_partitions_resident("a", payloads, states)
        assert session.resident_bytes == 2 * (per_payload + per_state)
        session.run(_resident_add, [(0, 1), (1, 2)])
        session.run(_resident_add, [(1, 3)])
        # Both directions are charged: scalar deltas out (8 logical bytes
        # each) and the scalar results back (8 each).
        assert session.superstep_bytes == (16 + 16) + (8 + 8)
        assert session.max_superstep_bytes == 32
        assert session.supersteps == 2


class TestShippedNbytes:
    """Regression: the meter must never count an unknown payload as free."""

    def test_known_types_have_logical_sizes(self):
        assert shipped_nbytes(None) == 0
        assert shipped_nbytes(np.zeros(10, dtype=np.int64)) == 80
        assert shipped_nbytes(7) == 8 and shipped_nbytes(1.5) == 8
        # NumPy scalars are charged by their dtype's itemsize (a flat 8-byte
        # word used to over-charge every narrow scalar); plain Python
        # bool/int/float remain one 8-byte word.
        assert shipped_nbytes(np.int32(3)) == 4 and shipped_nbytes(np.float32(1.0)) == 4
        assert shipped_nbytes(np.uint8(2)) == 1 and shipped_nbytes(np.bool_(True)) == 1
        assert shipped_nbytes(np.int64(3)) == 8 and shipped_nbytes(True) == 8
        assert shipped_nbytes("xorstar") == 7
        assert shipped_nbytes("héllo") == len("héllo".encode("utf-8"))
        assert shipped_nbytes(b"abc") == 3
        assert shipped_nbytes({"a": np.zeros(2), "b": (None, 1)}) == 16 + 8
        assert shipped_nbytes([np.zeros(0), "x"]) == 1

    def test_object_dtype_arrays_raise(self):
        # These used to ship for 0 bytes — invisible on every byte gate.
        with pytest.raises(TypeError, match="object-dtype"):
            shipped_nbytes(np.array([None, "a"], dtype=object))

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError, match="unsupported payload type"):
            shipped_nbytes({1, 2, 3})
        with pytest.raises(TypeError, match="unsupported payload type"):
            shipped_nbytes(object())
        # ... even nested inside an otherwise-fine container.
        with pytest.raises(TypeError):
            shipped_nbytes({"ok": np.zeros(1), "bad": object()})


class _RecordingBackend(NumpyBackend):
    """Backend whose resident sessions log every phase: its ``(fn, tasks)``
    stream, its results, and the shared global values of the per-vertex
    state arrays ``views`` just before it ships and just after it returns.

    A view's shared value at a vertex is the owning part's state entry:
    every task keeps its owned entries current, and the coordinator gathers
    halos from the same values. A part that has not built a view yet —
    parts build their state in their first task — holds ``unset``.
    """

    def __init__(self, views, unset=-1):
        self.views = views
        self.unset = unset
        self.phases = []

    def map_partitions_resident(self, token, payloads, states):
        session = super().map_partitions_resident(token, payloads, states)
        owned = [
            np.setdiff1d(np.arange(p["ids"].size), p["halo_local"]) for p in payloads
        ]
        n = sum(o.size for o in owned)
        outer = self
        original_run = session.run

        def shared(name):
            arr = np.full(n, outer.unset, dtype=np.int64)
            for payload, state, own in zip(payloads, states, owned):
                if name in state:
                    arr = arr.astype(state[name].dtype)
                    arr[payload["ids"][own]] = state[name][own]
            return arr

        def recording_run(fn, tasks):
            tasks = list(tasks)
            before = {name: shared(name) for name in outer.views}
            outs = original_run(fn, tasks)
            after = {name: shared(name) for name in outer.views}
            outer.phases.append((fn, tasks, before, outs, after))
            return outs

        session.run = recording_run
        return session


class TestDenseWireFormat:
    def test_kk_ships_the_gathered_halo_and_returns_boundary_values(self):
        # Refresh Row's delta is the iteration number alone; Refresh
        # Column's and Decide's are exactly the shared T and M gathered at
        # part.halo, with no worklist: the part keeps its own. Every phase
        # returns only what other parts read: the values of the part's
        # boundary worklist as the phase ships, its boundary vertices still
        # undecided (for Refresh Column: with M not yet OUT, all of them in
        # iteration 0). Refresh Column and Decide also return the worklist
        # size left, and in the iteration a part's w1 empties, Decide's
        # values are the is_in mask of all the part's owned vertices, once.
        from repro.hashing.packing import TuplePacking
        from repro.parallel import partitioned as P

        g = random_gnp(90, 0.07, seed=11)
        layout = build_partition_layout(g, 4)
        recorder = _RecordingBackend(("T", "M"))
        out = P.partitioned_kk_mis2(g, layout, backend=recorder)
        assert np.array_equal(out.in_set, kk_mis2(g).in_set)
        assert [fn for fn, *_ in recorder.phases] == [
            P._kk_refresh_row,
            P._kk_refresh_column,
            P._kk_decide,
        ] * out.iterations
        packer = TuplePacking(g.num_vertices)
        undecided, is_in, OUT = packer.is_undecided, packer.is_in, packer.out_value
        emptied = []
        for step, (fn, tasks, before, outs, after) in enumerate(recorder.phases):
            iteration = step // 3
            for (part_id, delta), result in zip(tasks, outs):
                part = layout.parts[part_id]
                boundary = part.boundary()
                if fn is P._kk_refresh_row:
                    assert type(delta) is int and delta == iteration
                    # A refresh keeps every tuple's decided state, so the
                    # refreshed T tells the boundary worklist too.
                    bw1 = boundary[undecided(after["T"][boundary])]
                    assert np.array_equal(result, after["T"][bw1])
                    continue
                size, values = result
                if fn is P._kk_refresh_column:
                    assert np.array_equal(delta, before["T"][part.halo])
                    bw2 = boundary
                    if iteration:
                        bw2 = boundary[before["M"][boundary] != OUT]
                    assert size == np.count_nonzero(after["M"][part.owned] != OUT)
                    assert np.array_equal(values, after["M"][bw2])
                    continue
                assert np.array_equal(delta, before["M"][part.halo])
                bw1 = boundary[undecided(before["T"][boundary])]
                assert size == np.count_nonzero(undecided(after["T"][part.owned]))
                if size:
                    assert np.array_equal(values, after["T"][bw1])
                else:
                    assert values.dtype == bool
                    assert np.array_equal(values, is_in(after["T"][part.owned]))
                    emptied.append(part_id)
        assert sorted(emptied) == [p.part_id for p in layout.parts if p.num_owned]

    def test_coloring_ships_the_gathered_halo_and_returns_boundary_values(self):
        # A coloring task's delta is exactly the shared colors gathered at
        # part.halo — final colors for speculation, the conflict-time view
        # (proposals on the worklist) for conflicts — with no worklist: the
        # part keeps its own. Both phases return only what other parts read:
        # the values of the part's boundary worklist, its boundary vertices
        # still uncolored when the phase ships. Conflicts also return the
        # worklist size left, and in the round it reaches 0 the values are
        # all the part's owned colors.
        from repro.parallel import partitioned as P

        g = random_gnp(90, 0.07, seed=11)
        layout = build_partition_layout(g, 4)
        recorder = _RecordingBackend(("final", "cur"))
        out = P.partitioned_greedy_color(g, layout, backend=recorder)
        assert np.array_equal(out.colors, greedy_color(g).colors)
        assert [fn for fn, *_ in recorder.phases] == [
            P._color_assign,
            P._color_conflict,
        ] * out.rounds
        read = {P._color_assign: "final", P._color_conflict: "cur"}
        emptied = []
        for fn, tasks, before, outs, after in recorder.phases:
            for (part_id, halo), result in zip(tasks, outs):
                part = layout.parts[part_id]
                assert halo.dtype == np.int64
                assert np.array_equal(halo, before[read[fn]][part.halo])
                boundary = part.boundary()
                bwl = boundary[before["final"][boundary] < 0]
                if fn is P._color_assign:
                    assert np.array_equal(result, after["cur"][bwl])
                    continue
                size, values = result
                assert size == np.count_nonzero(after["final"][part.owned] < 0)
                expected = after["final"][bwl if size else part.owned]
                assert np.array_equal(values, expected)
                if not size:
                    emptied.append(part_id)
        assert sorted(emptied) == [p.part_id for p in layout.parts if p.num_owned]


def _record_sessions(backend):
    """Log every session ``backend`` opens as a list of ``(fn, parts)`` phases."""
    sessions = []
    open_session = backend.map_partitions_resident

    def recording_open(token, payloads, states):
        session = open_session(token, payloads, states)
        phases = []
        sessions.append(phases)
        original_run = session.run

        def recording_run(fn, tasks):
            tasks = list(tasks)
            phases.append((fn, [part for part, _ in tasks]))
            return original_run(fn, tasks)

        session.run = recording_run
        return session

    backend.map_partitions_resident = recording_open
    return sessions


def _phase_cycles():
    from repro.parallel import partitioned as P

    return {
        "kk": (P._kk_refresh_row, P._kk_refresh_column, P._kk_decide),
        "color": (P._color_assign, P._color_conflict),
    }


#: kernel -> (front door, result values, phase cycle). The aggregation runs
#: its two MIS-2 computations through the kk driver.
_SCHEDULE_KERNELS = {
    "kk": (kk_mis2, lambda r: r.in_set, "kk"),
    "color": (greedy_color, lambda r: r.colors, "color"),
    "mis2_agg": (mis2_aggregation, lambda r: r.labels, "kk"),
}

#: Fresh instances, so recording never touches a registered backend; the
#: four-rank one holds the three parts on three of its ranks.
_SCHEDULE_BACKENDS = {
    "numpy": NumpyBackend,
    "distributed": lambda: DistributedBackend(ranks=2),
    "distributed4": lambda: DistributedBackend(ranks=4),
}


class TestBarrierSchedule:
    """Every phase of every round is exactly one ResidentSession.run call, in
    the kernel's phase order, addressing each live part at most once."""

    @pytest.mark.parametrize("kernel", sorted(_SCHEDULE_KERNELS))
    @pytest.mark.parametrize("backend_name", sorted(_SCHEDULE_BACKENDS))
    def test_each_phase_is_one_session_run(self, backend_name, kernel):
        run, values, cycle_name = _SCHEDULE_KERNELS[kernel]
        cycle = list(_phase_cycles()[cycle_name])
        g = random_gnp(50, 0.1, seed=4)
        layout = build_partition_layout(g, 3)
        backend = _SCHEDULE_BACKENDS[backend_name]()
        sessions = _record_sessions(backend)
        out = run(g, partitions=layout, backend=backend)
        assert np.array_equal(values(out), values(run(g)))
        assert sessions
        for phases in sessions:
            fns = [fn for fn, _ in phases]
            assert fns and len(fns) % len(cycle) == 0
            assert fns == cycle * (len(fns) // len(cycle))
            for _, parts in phases:
                # Two tasks of one part in one phase would race on its state.
                assert parts == sorted(set(parts))
                assert all(0 <= part < layout.num_parts for part in parts)
        stats = getattr(out, "partition_stats", None)
        if stats is not None:
            (phases,) = sessions
            assert stats.supersteps == len(phases)


class TestSmokeGraphBytes:
    """Shipped-byte pins on the smoke graphs at ``partitions=4``. In both
    kernels the largest superstep stays below the resident payload, which
    ships once."""

    @staticmethod
    def _graph(generator):
        from repro.graph.generators import elasticity3d, laplace3d

        return laplace3d(10, 10, 10) if generator == "laplace3d" else elasticity3d(6, 6, 6)

    @pytest.mark.parametrize(
        "generator, largest, total",
        [("laplace3d", 6_560, 80_584), ("elasticity3d", 9_344, 64_248)],
    )
    def test_kk_ships_halos_out_and_boundary_values_back(self, generator, largest, total):
        """Refresh Row ships each live part its 8-byte iteration number;
        Refresh Column and Decide ship 8 B per ghost. Back come 8 B per
        boundary worklist vertex, and from Refresh Column and Decide also an
        8-byte worklist size; a part whose w1 empties returns 1 B per owned
        vertex from Decide instead, its is_in mask. No superstep moves more
        than 8 x (halo + boundary + parts) + |V|. Iteration 0's
        ghost-reading phases each move 8 x (halo + boundary + parts), the
        largest superstep on both graphs: 6,560 B on laplace3d(10^3) and
        9,344 B on elasticity3d(6^3). On elasticity3d(6^3) iteration 1's
        Decide, in which two parts' w1 empties and they return the masks of
        their 206 + 129 owned vertices, moves less."""
        g = self._graph(generator)
        layout = build_partition_layout(g, 4)
        stats = kk_mis2(g, partitions=layout).partition_stats
        iteration0 = 8 * (layout.halo_vertices + layout.boundary_vertices + layout.num_parts)
        assert stats.supersteps > 0
        assert iteration0 <= stats.max_superstep_bytes <= iteration0 + g.num_vertices
        assert stats.max_superstep_bytes == largest
        assert stats.superstep_bytes == total
        assert stats.max_superstep_bytes < stats.resident_bytes
        assert stats.max_superstep_bytes < stats.superstep_bytes

    @pytest.mark.parametrize(
        "generator, largest, total",
        [("laplace3d", 6_872, 139_480), ("elasticity3d", 9_344, 195_160)],
    )
    def test_coloring_ships_halos_out_and_boundary_values_back(
        self, generator, largest, total
    ):
        """Every coloring phase ships 8 B per ghost of each live part out.
        Back come 8 B per boundary worklist vertex, and from conflicts also
        an 8-byte worklist size; a part whose worklist empties returns 8 B
        per owned vertex instead. The largest superstep is therefore a
        conflict phase: round 0's, 8 x (halo + boundary + parts) = 9,344 B,
        on elasticity3d(6^3); on laplace3d(10^3) the round in which a part's
        worklist empties and returns its 264 owned colors, 6,872 B against
        round 0's 6,560 B."""
        g = self._graph(generator)
        layout = build_partition_layout(g, 4)
        stats = greedy_color(g, partitions=layout).partition_stats
        round0_conflicts = 8 * (
            layout.halo_vertices + layout.boundary_vertices + layout.num_parts
        )
        everything_back = 8 * (layout.halo_vertices + g.num_vertices + layout.num_parts)
        assert round0_conflicts <= stats.max_superstep_bytes <= everything_back
        assert stats.max_superstep_bytes == largest
        assert stats.superstep_bytes == total
        assert stats.max_superstep_bytes < stats.resident_bytes


def _resident_add(payload, state, delta):
    state["acc"][0] += delta
    return int(payload["base"][0] + state["acc"][0])
