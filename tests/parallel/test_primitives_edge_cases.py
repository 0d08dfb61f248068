"""Edge-case tests for the segmented primitives.

Covers the corners Algorithm 1 actually hits: empty worklists (last iteration),
single-vertex graphs, isolated vertices (empty adjacency segments), and dtype
preservation through ``exclusive_scan`` / ``segmented_min`` (the packed status
tuples are uint64 and must not be silently promoted or truncated). The two
kernel-level cases run the flat ``kk_mis2`` once; its partitioned single-vertex
and edgeless cases are in ``test_backend_equivalence.py``.
"""

import numpy as np
import pytest

from repro.graph import empty_graph, from_edges, path_graph
from repro.mis import kk_mis2, verify_mis
from repro.parallel.primitives import (
    exclusive_scan,
    expand_rows,
    inclusive_scan,
    segmented_all_equal,
    segmented_any_equal,
    segmented_max,
    segmented_min,
    segmented_sum,
    stream_compact,
)

class TestEmptyWorklists:
    def test_expand_rows_empty_worklist(self):
        g = path_graph(5)
        slots, seg = expand_rows(g.rowmap, np.array([], dtype=np.int64))
        assert slots.size == 0
        assert seg.tolist() == [0]

    def test_segmented_ops_zero_segments(self):
        values = np.array([], dtype=np.int64)
        seg = np.array([0], dtype=np.int64)
        assert segmented_min(values, seg, identity=9).size == 0
        assert segmented_max(values, seg, identity=9).size == 0
        assert segmented_sum(values, seg).size == 0
        assert segmented_any_equal(values, 1, seg).size == 0

    def test_scan_of_empty_array(self):
        out = exclusive_scan(np.array([], dtype=np.int64))
        assert out.tolist() == [0]
        assert inclusive_scan(np.array([], dtype=np.int64)).size == 0

    def test_compact_empty(self):
        out = stream_compact(np.array([], dtype=np.int64), np.array([], dtype=bool))
        assert out.size == 0


class TestSingleVertexAndIsolated:
    def test_single_vertex_graph(self):
        g = empty_graph(1)
        slots, seg = expand_rows(g.rowmap, np.array([0], dtype=np.int64))
        assert slots.size == 0
        assert seg.tolist() == [0, 0]
        result = kk_mis2(g)
        assert result.in_set.tolist() == [0]

    def test_isolated_vertices_give_empty_segments(self):
        # Vertices 2..4 are isolated: their segments are empty and every
        # segmented reduction must yield its identity there.
        g = from_edges(5, [(0, 1)])
        rows = np.arange(5, dtype=np.int64)
        slots, seg = expand_rows(g.rowmap, rows)
        assert np.diff(seg).tolist() == [1, 1, 0, 0, 0]
        vals = np.array([7, 3], dtype=np.int64)
        assert segmented_min(vals, seg, identity=99).tolist() == [7, 3, 99, 99, 99]
        assert segmented_sum(vals, seg).tolist() == [7, 3, 0, 0, 0]
        assert segmented_any_equal(vals, 3, seg).tolist() == [False, True, False, False, False]
        ref = np.array([7, 4, 0, 0, 0], dtype=np.int64)
        assert segmented_all_equal(vals, ref, seg).tolist() == [True, False, True, True, True]

    def test_mis_on_all_isolated_vertices(self):
        g = empty_graph(6)
        result = kk_mis2(g)
        assert result.in_set.tolist() == list(range(6))
        assert verify_mis(g, result.in_set, k=2)


class TestDtypePreservation:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint64])
    def test_exclusive_scan_promotes_integers_to_int64(self, dtype):
        vals = np.array([1, 2, 3], dtype=dtype)
        out = exclusive_scan(vals)
        assert out.dtype == np.int64
        assert out.tolist() == [0, 1, 3, 6]

    def test_exclusive_scan_preserves_float_dtype(self):
        vals = np.array([0.5, 1.5], dtype=np.float32)
        out = exclusive_scan(vals)
        assert out.dtype == np.float32
        assert out.tolist() == [0.0, 0.5, 2.0]

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int64, np.float64])
    def test_segmented_min_preserves_value_dtype(self, dtype):
        vals = np.array([5, 2, 9, 1], dtype=dtype)
        seg = np.array([0, 2, 2, 4], dtype=np.int64)
        ident = np.asarray(7, dtype=dtype)[()]
        out = segmented_min(vals, seg, identity=ident)
        assert out.dtype == np.dtype(dtype)
        assert out.tolist() == [2, 7, 1]

    def test_segmented_min_uint64_no_precision_loss(self):
        # Packed tuples use the full 64-bit range; a float round-trip would
        # corrupt the low bits, which this value pair detects.
        big = np.uint64(2**63 + 5)
        bigger = np.uint64(2**63 + 7)
        vals = np.array([bigger, big], dtype=np.uint64)
        seg = np.array([0, 2], dtype=np.int64)
        out = segmented_min(vals, seg, identity=np.uint64(2**64 - 1))
        assert out.dtype == np.uint64
        assert out[0] == big

    def test_segmented_sum_empty_values_identity_dtype(self):
        out = segmented_sum(np.array([], dtype=np.int64), np.array([0, 0, 0]))
        assert out.tolist() == [0, 0]
