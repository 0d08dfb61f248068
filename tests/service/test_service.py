"""GraphService behaviour: store, caching, batching, mutation, health.

Bit-identity of repair vs. recompute lives in
``tests/properties/test_property_service_repair.py``; this module pins the
*service* semantics around it — epoch bookkeeping, cache hits, coalescing,
read-only results, error delivery, lifecycle, and the counts of a scripted
run.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.coarsen.mis2_agg import mis2_aggregation
from repro.graph import from_edges, laplace3d
from repro.mis.kk import kk_mis2
from repro.service import (
    GraphService,
    ServiceClosed,
    mis_keys,
    ordered_color,
)
from repro.service.core import _Request


def _path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _reference_aggregation(graph, seed=0):
    """Algorithm 3 seeded with a from-scratch fixed-scheme MIS-2: what the
    service's ``aggregate(seed=seed)`` must equal at every epoch."""
    return mis2_aggregation(
        graph, mis=kk_mis2(graph, priority_scheme="fixed", seed=seed)
    )


def _grid_graph(side=4):
    edges = []
    for r in range(side):
        for c in range(side):
            v = side * r + c
            if c < side - 1:
                edges.append((v, v + 1))
            if r < side - 1:
                edges.append((v, v + side))
    return from_edges(side * side, edges)


class TestStore:
    def test_add_query_remove(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(6))
            assert svc.graphs() == ["g"]
            assert svc.epoch("g") == 0
            svc.remove_graph("g")
            assert svc.graphs() == []
            with pytest.raises(KeyError, match="no graph named"):
                svc.graph("g")

    def test_missing_graph_error_reaches_future(self):
        with GraphService() as svc:
            with pytest.raises(KeyError, match="missing"):
                svc.mis2("missing")

    def test_unknown_kind_rejected_at_submit(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(3))
            with pytest.raises(ValueError, match="unknown query kind"):
                svc.submit("g", "pagerank")

    def test_mutation_bumps_epoch_noop_does_not(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(5))
            assert svc.add_edges("g", [(0, 1)]) == 0  # already present
            assert svc.epoch("g") == 0
            assert svc.add_edges("g", [(0, 2)]) == 1
            assert svc.epoch("g") == 1


class TestQueries:
    def test_mis2_matches_kernel_and_is_readonly(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph())
            mask = svc.mis2("g", seed=1)
            expected = kk_mis2(
                _grid_graph(), priority_scheme="fixed", seed=1
            ).in_mask
            np.testing.assert_array_equal(np.asarray(mask), expected)
            with pytest.raises(ValueError):
                mask[0] = False

    def test_color_matches_order_greedy_and_is_readonly(self):
        graph = _grid_graph()
        with GraphService() as svc:
            svc.add_graph("g", graph)
            colors = svc.color("g")
            np.testing.assert_array_equal(
                np.asarray(colors), ordered_color(graph, mis_keys(16, 0))
            )
            with pytest.raises(ValueError):
                colors[0] = 99

    def test_aggregate_matches_direct_call(self):
        graph = _grid_graph()
        with GraphService() as svc:
            svc.add_graph("g", graph)
            agg = svc.aggregate("g", seed=2)
            direct = _reference_aggregation(graph, seed=2)
            np.testing.assert_array_equal(agg.labels, direct.labels)
            np.testing.assert_array_equal(agg.roots, direct.roots)

    def test_aggregate_after_mis2_runs_only_the_sub_mis(self, monkeypatch):
        """One MIS-2 per epoch: the aggregate takes the epoch's ``mis2``
        answer, so Algorithm 3 runs ``kk_mis2`` once, for its phase-2 sub-MIS."""
        import repro.coarsen.mis2_agg as mis2_agg

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].num_vertices)
            return kk_mis2(*args, **kwargs)

        monkeypatch.setattr(mis2_agg, "kk_mis2", counted)
        graph = _grid_graph(12)
        with GraphService() as svc:
            svc.add_graph("g", graph)
            mask = svc.mis2("g", seed=0)
            agg = svc.aggregate("g", seed=0)
            assert len(calls) == 1 and calls[0] < graph.num_vertices
            roots = np.flatnonzero(mask)
            np.testing.assert_array_equal(agg.roots[: roots.size], roots)

    def test_aggregate_first_fills_the_mis2_cache(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph(12))
            svc.aggregate("g", seed=1)
            mask = svc.mis2("g", seed=1)
            stats = svc.stats_snapshot()
            assert stats["queries"] == 2
            assert stats["cache_hits"] == 1
            assert stats["full_recomputes"] == 2  # the MIS-2 and the aggregate
            np.testing.assert_array_equal(
                np.asarray(mask),
                kk_mis2(_grid_graph(12), priority_scheme="fixed", seed=1).in_mask,
            )

    def test_aggregate_matches_the_reference_above_toy_size(self):
        graph = laplace3d(20, 20, 20)
        with GraphService() as svc:
            svc.add_graph("g", graph)
            for write in (None, [(0, 4210)], [(7, 7777), (4000, 4002)]):
                if write is not None:
                    svc.add_edges("g", write)
                agg = svc.aggregate("g", seed=3)
                direct = _reference_aggregation(svc.graph("g"), seed=3)
                assert agg.is_complete()
                assert agg.num_aggregates == direct.num_aggregates
                np.testing.assert_array_equal(agg.labels, direct.labels)
                np.testing.assert_array_equal(agg.roots, direct.roots)

    def test_out_of_range_seed_reaches_the_future(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph())
            future = svc.submit("g", "mis2", seed=2**64)
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                future.result(timeout=30)

    def test_second_query_is_a_cache_hit(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph())
            first = svc.mis2("g")
            hits_before = svc.stats.cache_hits
            second = svc.mis2("g")
            assert svc.stats.cache_hits == hits_before + 1
            assert second is first  # the cached object itself, no copy

    def test_distinct_params_are_distinct_cache_slots(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph())
            svc.mis2("g", seed=0)
            full_before = svc.stats.full_recomputes
            svc.mis2("g", seed=1)
            assert svc.stats.full_recomputes == full_before + 1


class TestBatching:
    def test_drain_coalesces_identical_requests(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph())
            requests = [
                _Request("g", "mis2", (("seed", 0),), Future()) for _ in range(8)
            ]
            svc._drain(requests)
            assert svc.stats.coalesced == 7
            values = [r.future.result(timeout=5) for r in requests]
            assert all(v is values[0] for v in values)

    def test_drain_delivers_failure_to_every_member(self):
        with GraphService() as svc:
            requests = [
                _Request("ghost", "mis2", (("seed", 0),), Future())
                for _ in range(3)
            ]
            svc._drain(requests)
            for request in requests:
                with pytest.raises(KeyError):
                    request.future.result(timeout=5)

    def test_concurrent_submitters_agree(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph())
            futures = [svc.submit("g", "mis2", seed=0) for _ in range(16)]
            results = [f.result(timeout=30) for f in futures]
            expected = kk_mis2(_grid_graph(), priority_scheme="fixed").in_mask
            for result in results:
                np.testing.assert_array_equal(np.asarray(result), expected)


class TestMutations:
    def test_add_edges_validates_and_canonicalises(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(5))
            with pytest.raises(ValueError, match="out of range"):
                svc.add_edges("g", [(0, 9)])
            # Self-loops and duplicates collapse away.
            assert svc.add_edges("g", [(2, 2), (0, 3), (3, 0)]) == 1
            assert svc.graph("g").num_edges == _path_graph(5).num_edges + 1

    def test_remove_edges_counts_only_existing(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(5))
            assert svc.remove_edges("g", [(0, 1), (0, 4)]) == 1
            assert svc.epoch("g") == 1

    @pytest.mark.parametrize(
        "batch",
        [[(0, 1, 2)], np.array([0, 2]), [(0, 2.7)], np.array([[0.0, 2.0]]), [(0, True)]],
        ids=["triple", "1-d-array", "float-id", "float-array", "bool-endpoint"],
    )
    def test_malformed_batch_raises_and_keeps_the_epoch(self, batch):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(5))
            for write in (svc.add_edges, svc.remove_edges):
                with pytest.raises(ValueError):
                    write("g", batch)
            assert svc.epoch("g") == 0
            assert svc.graph("g") == _path_graph(5)

    @pytest.mark.parametrize("batch", [[(0, 9)], np.array([[0, 9]]), [(-1, 2)]])
    def test_out_of_range_batch_names_the_edge(self, batch):
        u, v = (int(x) for x in np.asarray(batch)[0])
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(5))
            for write in (svc.add_edges, svc.remove_edges):
                with pytest.raises(ValueError, match=rf"edge \({u}, {v}\) out of range"):
                    write("g", batch)
            assert svc.epoch("g") == 0

    def test_empty_batch_returns_zero_without_an_epoch(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(5))
            for batch in ([], np.zeros((0, 2), dtype=np.int64)):
                assert svc.add_edges("g", batch) == 0
                assert svc.remove_edges("g", batch) == 0
            assert svc.epoch("g") == 0

    def test_array_batch_behaves_like_the_same_list(self):
        added = [(0, 2), (4, 1), (2, 0), (3, 3), (0, 1)]
        removed = [(1, 2), (2, 0), (1, 2)]
        with GraphService() as as_list, GraphService() as as_array:
            for svc in (as_list, as_array):
                svc.add_graph("g", _path_graph(5))
            assert as_list.add_edges("g", added) == 2
            assert as_array.add_edges("g", np.array(added)) == 2
            assert as_list.remove_edges("g", removed) == 2
            assert as_array.remove_edges("g", np.array(removed, dtype=np.int32)) == 2
            assert as_list.graph("g") == as_array.graph("g")
            assert as_list.epoch("g") == as_array.epoch("g") == 2

    def test_writes_on_a_canonical_graph_never_rebuild_it(self, monkeypatch):
        """Writes splice the rows they touch; the whole-graph rebuild through
        ``from_edges`` never runs, for one edge or for a batch."""
        import repro.service.core as core

        def rebuild(*args, **kwargs):
            raise AssertionError("a write rebuilt the graph through from_edges")

        graph = _grid_graph()
        monkeypatch.setattr(core, "from_edges", rebuild)
        with GraphService() as svc:
            svc.add_graph("g", graph)
            assert svc.add_edges("g", [(0, 15)]) == 1
            assert svc.add_edges("g", np.array([[0, 5], [3, 12], [5, 0]])) == 2
            assert svc.remove_edges("g", [(0, 15), (0, 1), (1, 2)]) == 3
            assert svc.epoch("g") == 3

    def test_add_vertices_appends_isolated_ids(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(4))
            assert svc.add_vertices("g", 2) == (4, 6)
            graph = svc.graph("g")
            assert graph.num_vertices == 6
            assert graph.rowmap[-1] == graph.rowmap[4]  # new vertices isolated

    def test_append_across_id_width_boundary_is_structural(self):
        # b = ceil(log2(n + 2)) grows from 3 to 4 between n=6 and n=7.
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(6))
            svc.mis2("g")
            svc.add_vertices("g", 1)
            assert svc.stats.structural_mutations == 1
            full_before = svc.stats.full_recomputes
            mask = svc.mis2("g")
            assert svc.stats.full_recomputes == full_before + 1
            expected = kk_mis2(svc.graph("g"), priority_scheme="fixed").in_mask
            np.testing.assert_array_equal(np.asarray(mask), expected)

    @pytest.mark.parametrize(
        "ids,match",
        [
            ([2.7], r"float64: \[2\.7\]"),
            ([True], r"bool: \[True\]"),
            ([3, True], r"vertex ids must be integers, got True"),
            ([-1], r"vertex id -1 out of range"),
            ([5], r"vertex id 5 out of range"),
        ],
        ids=["float", "bool", "bool-among-ints", "negative", "past-the-end"],
    )
    def test_remove_vertices_rejects_bad_ids_and_keeps_the_epoch(self, ids, match):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(5))
            with pytest.raises(ValueError, match=match):
                svc.remove_vertices("g", ids)
            assert svc.epoch("g") == 0
            assert svc.graph("g") == _path_graph(5)

    @pytest.mark.parametrize("count", [2.5, True, -1], ids=["float", "bool", "negative"])
    def test_add_vertices_rejects_bad_counts_and_keeps_the_epoch(self, count):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(5))
            with pytest.raises(ValueError, match="count must be"):
                svc.add_vertices("g", count)
            assert svc.epoch("g") == 0
            assert svc.graph("g") == _path_graph(5)

    def test_remove_vertices_renumbers_and_recomputes(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(6))
            svc.mis2("g")
            assert svc.remove_vertices("g", [0, 3]) == 2
            assert svc.stats.structural_mutations == 1
            assert svc.graph("g").num_vertices == 4
            mask = svc.mis2("g")
            expected = kk_mis2(svc.graph("g"), priority_scheme="fixed").in_mask
            np.testing.assert_array_equal(np.asarray(mask), expected)

    def test_mutation_invalidates_aggregate_cache(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph())
            svc.aggregate("g")
            full_before = svc.stats.full_recomputes
            svc.add_edges("g", [(0, 15)])
            agg = svc.aggregate("g")
            assert svc.stats.full_recomputes == full_before + 1
            direct = _reference_aggregation(svc.graph("g"))
            np.testing.assert_array_equal(agg.labels, direct.labels)


class TestRepairPath:
    def test_local_edge_insert_repairs_instead_of_recomputing(self):
        with GraphService(repair_crossover=1.0) as svc:
            svc.add_graph("g", _path_graph(12))
            svc.mis2("g")
            svc.color("g")
            full_before = svc.stats.full_recomputes
            svc.add_edges("g", [(0, 2)])
            mask = svc.mis2("g")
            colors = svc.color("g")
            assert svc.stats.repairs == 2
            assert svc.stats.repair_touched > 0
            assert svc.stats.full_recomputes == full_before
            graph = svc.graph("g")
            np.testing.assert_array_equal(
                np.asarray(mask),
                kk_mis2(graph, priority_scheme="fixed").in_mask,
            )
            np.testing.assert_array_equal(
                np.asarray(colors), ordered_color(graph, mis_keys(12, 0))
            )

    def test_wide_frontier_falls_back_past_crossover(self):
        # Near-complete graph on 40 vertices: the dirty neighbourhood of any
        # edge insert is all 40 vertices, past the budget of max(32, 0).
        n = 40
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        missing = edges.pop(0)
        with GraphService(repair_crossover=0.0) as svc:
            svc.add_graph("g", from_edges(n, edges))
            svc.mis2("g")
            svc.add_edges("g", [missing])
            mask = svc.mis2("g")
            assert svc.stats.repair_fallbacks >= 1
            assert svc.stats.repairs == 0
            np.testing.assert_array_equal(
                np.asarray(mask),
                kk_mis2(svc.graph("g"), priority_scheme="fixed").in_mask,
            )


class TestLifecycleAndHealth:
    def test_health_reports_liveness_and_graph_sizes(self):
        with GraphService() as svc:
            svc.add_graph("g", _grid_graph())
            svc.add_edges("g", [(0, 15)])
            report = svc.health()
            assert set(report) == {"closed", "healthy", "graphs"}
            assert report["closed"] is False
            assert report["healthy"] is True
            info = report["graphs"]["g"]
            assert info == {"vertices": 16, "edges": 25, "epoch": 1}

    def test_closed_service_rejects_work_and_reports_unhealthy(self):
        svc = GraphService()
        svc.add_graph("g", _path_graph(3))
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(ServiceClosed):
            svc.submit("g", "mis2")
        with pytest.raises(ServiceClosed):
            svc.add_graph("h", _path_graph(2))
        report = svc.health()
        assert report["closed"] is True
        assert report["healthy"] is False

    def test_stats_to_dict_round_trips(self):
        with GraphService() as svc:
            svc.add_graph("g", _path_graph(4))
            svc.mis2("g")
            stats = svc.stats.to_dict()
            assert stats["queries"] == 1
            assert stats["full_recomputes"] == 1
            assert set(stats) == set(svc.stats.__dict__)


class TestScriptedRun:
    """The counts of one scripted run: initial queries, then a diagonal chord
    toggled per write with a query of each repairable kind after it. They
    are deterministic, so any change to the write, repair or fallback path
    that moves one shows here."""

    @pytest.mark.parametrize(
        "side,writes,expected",
        [
            (12, 6, dict(vertices=144, edges=270, mis2=21, colors=5, aggregates=27,
                         mutations=6, structural_mutations=0, repairs=12,
                         repair_fallbacks=0, full_recomputes=3)),
            (20, 4, dict(vertices=400, edges=764, mis2=59, colors=4, aggregates=74,
                         mutations=4, structural_mutations=0, repairs=8,
                         repair_fallbacks=0, full_recomputes=3)),
        ],
        ids=["grid12", "grid20"],
    )
    def test_counts_are_pinned(self, side, writes, expected):
        n = side * side
        with GraphService(repair_crossover=0.5) as svc:
            svc.add_graph("g", _grid_graph(side))
            svc.mis2("g", seed=0)
            svc.color("g")
            aggregation = svc.aggregate("g", seed=0)
            reference = _reference_aggregation(_grid_graph(side), seed=0)
            np.testing.assert_array_equal(aggregation.labels, reference.labels)
            for r in range(writes):
                a = (7 * r) % (n - side - 1)
                chord = [(a, a + side + 1)]
                if svc.add_edges("g", chord) == 0:
                    svc.remove_edges("g", chord)
                svc.mis2("g", seed=0)
                svc.color("g")
            graph = svc.graph("g")
            stats = svc.stats_snapshot()
            got = dict(
                vertices=graph.num_vertices,
                edges=graph.num_edges,
                mis2=int(np.count_nonzero(svc.mis2("g", seed=0))),
                colors=int(svc.color("g").max()) + 1,
                aggregates=aggregation.num_aggregates,
                **{key: stats[key] for key in (
                    "mutations", "structural_mutations", "repairs",
                    "repair_fallbacks", "full_recomputes",
                )},
            )
            assert got == expected
            assert svc.epoch("g") == writes
