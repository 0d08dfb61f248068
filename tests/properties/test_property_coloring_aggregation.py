"""Property-based tests for coloring, aggregation and the segmented primitives."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coarsen import (
    aggregate_quality,
    coarse_graph,
    d2c_aggregation,
    mis2_aggregation,
    mis2_basic_aggregation,
)
from repro.coloring import distance2_color, greedy_color, is_valid_coloring
from repro.mis import is_independent_set
from repro.parallel import (
    exclusive_scan,
    segmented_all_equal,
    segmented_any_equal,
    segmented_min,
    segmented_sum,
)
from repro.parallel.primitives import expand_rows

from tests.properties.strategies import graphs

COMMON = dict(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(graphs())
@settings(**COMMON)
def test_greedy_coloring_is_always_valid(graph):
    result = greedy_color(graph)
    assert is_valid_coloring(graph, result.colors, distance=1)
    assert result.num_colors <= graph.max_degree() + 1


@given(graphs(max_vertices=18))
@settings(**COMMON)
def test_distance2_color_classes_are_d2_independent(graph):
    result = distance2_color(graph)
    assert is_valid_coloring(graph, result.colors, distance=2)
    for cls in result.color_classes():
        assert is_independent_set(graph, cls, k=2)


@given(graphs(max_vertices=18))
@settings(**COMMON)
def test_aggregations_are_complete_partitions(graph):
    for fn in (mis2_basic_aggregation, mis2_aggregation, d2c_aggregation):
        agg = fn(graph)
        assert agg.is_complete()
        if graph.num_vertices:
            assert agg.sizes().sum() == graph.num_vertices
            quality = aggregate_quality(agg)
            assert quality.min_size >= 1


@given(graphs(max_vertices=18))
@settings(**COMMON)
def test_coarse_graph_is_smaller_and_consistent(graph):
    if graph.num_vertices == 0:
        return
    agg = mis2_aggregation(graph)
    cg = coarse_graph(graph, agg)
    assert cg.num_vertices == agg.num_aggregates
    assert cg.num_vertices <= graph.num_vertices
    # Every coarse edge corresponds to at least one fine edge between the aggregates.
    labels = agg.labels
    fine_pairs = {
        (min(int(labels[u]), int(labels[v])), max(int(labels[u]), int(labels[v])))
        for u, v in graph.iter_edges()
        if labels[u] != labels[v]
    }
    coarse_pairs = {(min(a, b), max(a, b)) for a, b in cg.iter_edges()}
    assert coarse_pairs == fine_pairs


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=40))
@settings(max_examples=100, deadline=None)
def test_segmented_reductions_match_python(lengths):
    seg = exclusive_scan(np.asarray(lengths, dtype=np.int64))
    total = int(seg[-1])
    rng = np.random.default_rng(42)
    values = rng.integers(0, 1000, size=total)
    sums = segmented_sum(values, seg)
    mins = segmented_min(values, seg, identity=10**9)
    for j, length in enumerate(lengths):
        chunk = values[seg[j]: seg[j + 1]]
        assert sums[j] == chunk.sum()
        assert mins[j] == (chunk.min() if length else 10**9)


#: Row lengths of a random CSR structure, empty rows included.
ROW_LENGTHS = st.lists(st.integers(min_value=0, max_value=5), max_size=12)

#: Values the Decide tests compare: kk's IN and OUT words (0 and 2**64 - 1)
#: beside ordinary packed tuples, and floats, where NaN equals nothing and
#: -0.0 equals 0.0.
EQUALITY_POOLS = {
    np.uint64: [0, 1, 2**63, 2**64 - 2, 2**64 - 1],
    np.float64: [float("nan"), 0.0, -0.0, 1.5, float("-inf"), float("inf")],
}


@given(
    lengths=ROW_LENGTHS,
    rowmap_dtype=st.sampled_from([np.int32, np.int64]),
    rows_dtype=st.sampled_from([np.int32, np.int64]),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_expand_rows_matches_concatenated_ranges(lengths, rowmap_dtype, rows_dtype, data):
    rowmap = exclusive_scan(np.asarray(lengths, dtype=np.int64)).astype(rowmap_dtype)
    # Unsorted and repeated rows, or none at all.
    picked = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(lengths) - 1), max_size=20)
        if lengths
        else st.just([])
    )
    rows = np.asarray(picked, dtype=rows_dtype)
    slots, seg = expand_rows(rowmap, rows)
    assert slots.dtype == np.int64 and seg.dtype == np.int64
    assert slots.tolist() == [
        k for r in picked for k in range(int(rowmap[r]), int(rowmap[r + 1]))
    ]
    assert np.diff(seg).tolist() == [lengths[r] for r in picked]


@given(
    lengths=ROW_LENGTHS,
    dtype=st.sampled_from([np.uint64, np.float64]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_segmented_equality_tests_match_python(lengths, dtype, data):
    seg = exclusive_scan(np.asarray(lengths, dtype=np.int64))
    # A pool of one or two values, so that whole segments often agree.
    pool = st.sampled_from(
        data.draw(st.lists(st.sampled_from(EQUALITY_POOLS[dtype]), min_size=1, max_size=2))
    )
    total = int(seg[-1])
    values = np.asarray(data.draw(st.lists(pool, min_size=total, max_size=total)), dtype=dtype)
    reference = np.asarray(
        data.draw(st.lists(pool, min_size=len(lengths), max_size=len(lengths))), dtype=dtype
    )
    target = dtype(data.draw(pool))
    all_equal = segmented_all_equal(values, reference, seg)
    any_equal = segmented_any_equal(values, target, seg)
    assert all_equal.dtype == bool and any_equal.dtype == bool
    for j in range(len(lengths)):
        chunk = values[seg[j]: seg[j + 1]].tolist()
        assert all_equal[j] == all(v == reference[j].item() for v in chunk)
        assert any_equal[j] == any(v == target.item() for v in chunk)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=60))
@settings(max_examples=100, deadline=None)
def test_exclusive_scan_properties(values):
    arr = np.asarray(values, dtype=np.int64)
    out = exclusive_scan(arr)
    assert out.size == arr.size + 1
    assert out[0] == 0
    assert out[-1] == arr.sum()
    assert np.array_equal(np.diff(out), arr)
