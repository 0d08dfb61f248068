"""Tests for the priority schemes of Section V-A."""

import warnings

import numpy as np
import pytest

from repro.hashing import (
    PriorityScheme,
    fixed_priorities,
    iteration_priorities,
    priority_scheme_names,
)


class TestPriorityScheme:
    def test_coerce_from_string(self):
        assert PriorityScheme.coerce("fixed") is PriorityScheme.FIXED
        assert PriorityScheme.coerce("XORSTAR") is PriorityScheme.XORSTAR
        assert PriorityScheme.coerce(PriorityScheme.XOR) is PriorityScheme.XOR

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError):
            PriorityScheme.coerce("random")

    def test_names_in_table_one_order(self):
        assert priority_scheme_names() == ["fixed", "xor", "xorstar"]


class TestFixedPriorities:
    def test_deterministic_per_seed(self):
        assert np.array_equal(fixed_priorities(100, seed=1), fixed_priorities(100, seed=1))
        assert not np.array_equal(fixed_priorities(100, seed=1), fixed_priorities(100, seed=2))

    def test_all_distinct(self):
        p = fixed_priorities(5000)
        assert np.unique(p).size == 5000

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            fixed_priorities(-1)

    def test_empty(self):
        assert fixed_priorities(0).size == 0

    @pytest.mark.parametrize(
        "seed", [-1, 2**64, True, 1.5], ids=["negative", "2**64", "bool", "float"]
    )
    def test_seed_outside_the_uint64_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            fixed_priorities(4, seed=seed)

    def test_largest_seed_wraps_the_offset_without_a_warning(self):
        # The golden-ratio offset wraps modulo 2**64; these are the values a
        # wrapping uint64 add gives.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fixed_priorities(5, seed=2**64 - 1)
        assert got.tolist() == [
            4531050957695392325,
            18205912698913118986,
            17385670201042627067,
            4282657942613946804,
            16237809041496660201,
        ]


class TestIterationPriorities:
    def test_fixed_scheme_ignores_iteration(self):
        a = iteration_priorities("fixed", 0, 64, seed=3)
        b = iteration_priorities("fixed", 9, 64, seed=3)
        assert np.array_equal(a, b)

    def test_hash_schemes_change_with_iteration(self):
        a = iteration_priorities("xorstar", 0, 64)
        b = iteration_priorities("xorstar", 1, 64)
        assert not np.array_equal(a, b)

    def test_xor_and_xorstar_differ(self):
        a = iteration_priorities("xor", 2, 64)
        b = iteration_priorities("xorstar", 2, 64)
        assert not np.array_equal(a, b)

    def test_output_length_and_dtype(self):
        p = iteration_priorities("xorstar", 0, 33)
        assert p.shape == (33,)
        assert p.dtype == np.uint64
