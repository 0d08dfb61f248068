"""Tests shared across the four aggregation algorithms (Algorithm 2, Algorithm 3,
D2C-based, and the serial baseline)."""

import numpy as np
import pytest

from repro.coarsen import (
    aggregate_quality,
    d2c_aggregation,
    mis2_aggregation,
    mis2_basic_aggregation,
    serial_aggregation,
)
from repro.graph import (
    connected_components,
    empty_graph,
    grid2d,
    induced_subgraph,
    path_graph,
    star_graph,
)
from repro.mis import kk_mis2

ALGORITHMS = {
    "mis2_basic": mis2_basic_aggregation,
    "mis2_agg": mis2_aggregation,
    "d2c": d2c_aggregation,
    "serial": serial_aggregation,
}


@pytest.fixture(params=sorted(ALGORITHMS), ids=sorted(ALGORITHMS))
def aggregation_fn(request):
    return ALGORITHMS[request.param]


class TestCommonInvariants:
    def test_complete_and_dense_labels(self, aggregation_fn, nonempty_small_graph):
        agg = aggregation_fn(nonempty_small_graph)
        assert agg.is_complete()
        assert agg.labels.size == nonempty_small_graph.num_vertices
        used = np.unique(agg.labels)
        assert used.size == agg.num_aggregates
        assert used.min() == 0 and used.max() == agg.num_aggregates - 1

    def test_aggregates_are_connected(self, aggregation_fn, nonempty_small_graph):
        agg = aggregation_fn(nonempty_small_graph)
        for members in agg.aggregate_lists():
            sub, _ = induced_subgraph(nonempty_small_graph, members)
            n_comp, _ = connected_components(sub)
            assert n_comp == 1

    def test_structured_graph_coarsening_factor(self, aggregation_fn, small_laplace3d):
        agg = aggregation_fn(small_laplace3d)
        quality = aggregate_quality(agg)
        # Aggregates built from a vertex plus (a subset of) its neighbours should
        # shrink the graph substantially but not absurdly.
        assert 2.0 <= quality.coarsening_factor <= 40.0

    def test_empty_graph(self, aggregation_fn):
        agg = aggregation_fn(empty_graph(0))
        assert agg.num_aggregates == 0
        assert agg.is_complete()

    def test_deterministic(self, aggregation_fn, small_laplace3d):
        a = aggregation_fn(small_laplace3d)
        b = aggregation_fn(small_laplace3d)
        assert np.array_equal(a.labels, b.labels)
        assert a.num_aggregates == b.num_aggregates


class TestAlgorithmSpecific:
    def test_basic_uses_one_aggregate_per_root(self, small_laplace3d):
        mis = kk_mis2(small_laplace3d)
        agg = mis2_basic_aggregation(small_laplace3d, mis=mis)
        assert agg.num_aggregates == mis.size
        # Every root belongs to its own aggregate.
        assert np.array_equal(agg.labels[mis.in_set], np.arange(mis.size))

    def test_mis2_agg_creates_secondary_aggregates(self, small_laplace3d):
        basic = mis2_basic_aggregation(small_laplace3d)
        full = mis2_aggregation(small_laplace3d)
        # Phase 2 adds aggregates beyond the primary MIS-2 roots.
        assert full.num_aggregates > basic.num_aggregates
        assert full.phase_vertex_counts["phase2"] > 0

    def test_mis2_agg_better_aggregate_shape_than_basic(self, medium_laplace3d):
        # Algorithm 3 exists because Algorithm 2 yields irregular, oversized
        # aggregates on structured problems: its phase-2/phase-3 structure bounds the
        # largest aggregate and produces a finer, more regular coarsening.
        basic_q = aggregate_quality(mis2_basic_aggregation(medium_laplace3d))
        full_q = aggregate_quality(mis2_aggregation(medium_laplace3d))
        assert full_q.max_size < basic_q.max_size
        assert full_q.num_aggregates > basic_q.num_aggregates
        assert full_q.singletons == 0

    def test_mis2_agg_respects_min_secondary_neighbors(self, small_laplace3d):
        strict = mis2_aggregation(small_laplace3d, min_secondary_neighbors=4)
        loose = mis2_aggregation(small_laplace3d, min_secondary_neighbors=1)
        assert loose.num_aggregates >= strict.num_aggregates

    def test_d2c_star(self):
        agg = d2c_aggregation(star_graph(6))
        assert agg.is_complete()
        assert agg.num_aggregates == 1

    def test_serial_phases_recorded(self, small_laplace3d):
        agg = serial_aggregation(small_laplace3d)
        counts = agg.phase_vertex_counts
        assert counts["phase1"] > 0
        assert sum(counts.values()) == small_laplace3d.num_vertices

    def test_precomputed_mis_reused(self, small_laplace3d):
        mis = kk_mis2(small_laplace3d)
        a = mis2_aggregation(small_laplace3d, mis=mis)
        b = mis2_aggregation(small_laplace3d)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("other", [10, 30], ids=["smaller", "larger"])
    @pytest.mark.parametrize(
        "aggregate", [mis2_aggregation, mis2_basic_aggregation], ids=["mis2_agg", "mis2_basic"]
    )
    def test_mis2_agg_rejects_an_mis_of_another_vertex_count(self, aggregate, other):
        # A smaller MIS would seed aggregates from roots that are no MIS-2
        # of the graph; a larger one indexes past the graph's vertices.
        with pytest.raises(ValueError, match=f"mis covers {other} vertices but the graph has 20"):
            aggregate(path_graph(20), mis=kk_mis2(path_graph(other)))


class TestQualityMetrics:
    def test_quality_requires_complete(self):
        from repro.coarsen import Aggregation

        with pytest.raises(ValueError):
            aggregate_quality(Aggregation(labels=np.array([0, -1]), num_aggregates=1))

    def test_quality_statistics(self, small_laplace3d):
        agg = mis2_aggregation(small_laplace3d)
        q = aggregate_quality(agg)
        assert q.num_vertices == small_laplace3d.num_vertices
        assert q.num_aggregates == agg.num_aggregates
        assert q.min_size <= q.mean_size <= q.max_size
        assert q.mean_size == pytest.approx(q.num_vertices / q.num_aggregates)
        assert q.as_dict()["singletons"] == q.singletons
