"""Deterministic hashing, pseudo-random priority schemes and compressed status-tuple
packing (Sections V-A and V-C of the paper)."""

from __future__ import annotations

from .xorshift import (
    xorshift64,
    xorshift64star,
    hash_iter_vertex,
    XORSHIFT64_STAR_MULTIPLIER,
)
from .priorities import (
    PriorityScheme,
    check_seed,
    fixed_priorities,
    iteration_priorities,
    priority_scheme_names,
)
from .packing import (
    TuplePacking,
    packed_in,
    packed_out,
    priority_bits,
)

__all__ = [
    "xorshift64",
    "xorshift64star",
    "hash_iter_vertex",
    "XORSHIFT64_STAR_MULTIPLIER",
    "PriorityScheme",
    "check_seed",
    "fixed_priorities",
    "iteration_priorities",
    "priority_scheme_names",
    "TuplePacking",
    "packed_in",
    "packed_out",
    "priority_bits",
]
