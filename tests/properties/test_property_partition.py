"""Property-based tests of the partition-parallel execution layer.

The invariants the intra-graph sharding contract rests on: a layout is an
exact cover of the vertex set, boundary/halo relationships are symmetric
across the cut, and the partitioned kernels are independent of both the part
count and any permutation of the part labels — always bit-identical to the
unpartitioned reference.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coloring import greedy_color
from repro.mis import kk_mis2
from repro.parallel import build_partition_layout, get_backend, partition_vertices

from tests.properties.strategies import graphs

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_labels(draw, max_parts: int = 5):
    """A random graph plus random (possibly unbalanced/empty-part) labels."""
    graph = draw(graphs())
    k = draw(st.integers(min_value=1, max_value=max_parts))
    n = graph.num_vertices
    labels = np.asarray(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64
    )
    return graph, labels


@given(graphs(), st.integers(min_value=1, max_value=5))
@settings(**COMMON)
def test_partition_covers_every_vertex_exactly_once(graph, k):
    layout = build_partition_layout(graph, k)
    assert layout.num_parts == k
    owned = np.concatenate([p.owned for p in layout.parts]) if layout.parts else np.zeros(0)
    assert owned.size == graph.num_vertices
    assert np.array_equal(np.sort(owned), np.arange(graph.num_vertices))
    # Labels agree with membership.
    for part in layout.parts:
        assert np.all(layout.labels[part.owned] == part.part_id)


@given(graph_and_labels())
@settings(**COMMON)
def test_boundary_and_halo_are_symmetric(case):
    graph, labels = case
    layout = build_partition_layout(graph, labels)
    boundary = {p.part_id: set(p.boundary().tolist()) for p in layout.parts}
    halo = {p.part_id: set(p.halo.tolist()) for p in layout.parts}
    crossing = 0
    for u, v in graph.iter_edges():
        pu, pv = int(labels[u]), int(labels[v])
        if pu == pv:
            continue
        crossing += 1
        # Both endpoints of a cut edge are boundary vertices of their owners...
        assert u in boundary[pu] and v in boundary[pv]
        # ... and each is a ghost of the other's part.
        assert v in halo[pu] and u in halo[pv]
    assert crossing == layout.cut_edges
    # Every ghost really is a boundary vertex of the part that owns it.
    for part in layout.parts:
        for ghost in part.halo.tolist():
            assert ghost in boundary[int(labels[ghost])]
    assert layout.interior_vertices + layout.boundary_vertices == graph.num_vertices


@given(graph_and_labels())
@settings(**COMMON)
def test_partitioned_kernels_match_reference_for_arbitrary_labels(case):
    graph, labels = case
    mis = kk_mis2(graph)
    pmis = kk_mis2(graph, partitions=labels)
    assert np.array_equal(mis.in_set, pmis.in_set)
    assert mis.iterations == pmis.iterations
    coloring = greedy_color(graph)
    pcoloring = greedy_color(graph, partitions=labels)
    assert np.array_equal(coloring.colors, pcoloring.colors)
    assert coloring.rounds == pcoloring.rounds


@given(graph_and_labels())
@settings(**COMMON)
def test_supersteps_are_rounds_times_phases(case):
    """One session run per phase: kk runs three phases a round, coloring
    two, whatever the labels; the payload ships once at open, so no
    superstep ever ships more than all supersteps together."""
    graph, labels = case
    kk = kk_mis2(graph, partitions=labels)
    coloring = greedy_color(graph, partitions=labels)
    assert kk.partition_stats.supersteps == 3 * kk.iterations
    assert coloring.partition_stats.supersteps == 2 * coloring.rounds
    for stats in (kk.partition_stats, coloring.partition_stats):
        assert stats.max_superstep_bytes <= stats.superstep_bytes
        assert (stats.resident_bytes > 0) == (graph.num_vertices > 0)


@given(graph_and_labels())
@settings(**COMMON)
def test_partition_stats_independent_of_backend(case):
    """The in-process reference and the socket-rank session record the same
    results and the same deterministic counts for any labels, empty parts
    included: bytes are logical, and the schedule is the same one barrier
    per phase."""
    graph, labels = case
    distributed = get_backend("distributed")
    for kernel, values in (
        (kk_mis2, lambda r: r.in_set),
        (greedy_color, lambda r: r.colors),
    ):
        ref = kernel(graph, partitions=labels)
        out = kernel(graph, partitions=labels, backend=distributed)
        assert np.array_equal(values(ref), values(out))
        a, b = ref.partition_stats.to_dict(), out.partition_stats.to_dict()
        assert {k: v for k, v in a.items() if not k.endswith("_seconds")} == {
            k: v for k, v in b.items() if not k.endswith("_seconds")
        }


@given(graphs(), st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
@settings(**COMMON)
def test_partitioned_mis_independent_of_part_permutation(graph, k, rng):
    labels = partition_vertices(graph, k) if (k & (k - 1)) == 0 else (
        (np.arange(graph.num_vertices, dtype=np.int64) * k) // max(1, graph.num_vertices)
    )
    perm = np.arange(k, dtype=np.int64)
    rng.shuffle(perm)
    permuted = perm[labels] if labels.size else labels
    a = kk_mis2(graph, partitions=labels)
    b = kk_mis2(graph, partitions=permuted)
    ref = kk_mis2(graph)
    assert np.array_equal(a.in_set, b.in_set)
    assert np.array_equal(a.in_set, ref.in_set)
    assert a.iterations == b.iterations == ref.iterations
