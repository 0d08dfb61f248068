"""Property tests: ``induced_subgraph`` equals the SciPy restriction it replaced.

The oracle restricts the adjacency matrix with two fancy indexes and rebuilds
the graph through ``from_scipy`` (symmetrise, drop the diagonal, sort). On the
canonical graphs the builders produce, the NumPy gather must give the same
``rowmap``, ``entries`` and mapping, without calling SciPy at all.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.ops as ops
from repro.graph import from_scipy, to_scipy
from repro.graph.ops import induced_subgraph
from tests.properties.strategies import graph_and_vertex_subset, graphs

COMMON = dict(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _scipy_oracle(graph, vertices):
    v = np.unique(np.asarray(vertices, dtype=np.int64))
    return from_scipy(to_scipy(graph, dtype=np.int8)[v][:, v]), v


def _no_scipy(*args, **kwargs):
    raise AssertionError("induced_subgraph went through SciPy")


def _check(graph, vertices):
    expected, expected_mapping = _scipy_oracle(graph, vertices)
    with mock.patch.object(ops, "to_scipy", _no_scipy), mock.patch.object(
        ops, "from_scipy", _no_scipy
    ):
        sub, mapping = induced_subgraph(graph, vertices)
    np.testing.assert_array_equal(sub.rowmap, expected.rowmap)
    np.testing.assert_array_equal(sub.entries, expected.entries)
    np.testing.assert_array_equal(mapping, expected_mapping)
    assert sub.rowmap.dtype == expected.rowmap.dtype
    assert sub.entries.dtype == expected.entries.dtype


@given(graph_and_vertex_subset())
@settings(**COMMON)
def test_induced_subgraph_matches_the_scipy_oracle(case):
    graph, vertices = case
    _check(graph, vertices)


@st.composite
def graph_and_raw_subset(draw):
    """A graph and a vertex list as a caller may pass it: unsorted, with
    repeats, or exactly empty or full."""
    graph = draw(graphs(max_vertices=20))
    n = graph.num_vertices
    if n == 0:
        return graph, []
    vertex = st.integers(0, n - 1)
    subset = draw(
        st.one_of(
            st.just([]),
            st.permutations(range(n)),
            st.lists(vertex, min_size=1, max_size=2 * n),
        )
    )
    return graph, subset


@given(graph_and_raw_subset())
@settings(**COMMON)
def test_induced_subgraph_of_unsorted_repeated_empty_and_full_subsets(case):
    graph, vertices = case
    _check(graph, vertices)
