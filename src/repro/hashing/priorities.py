"""Pseudo-random priority schemes for the MIS-2 algorithms (Section V-A, Table I).

Three schemes are reproduced:

* ``fixed`` — priorities chosen once before the first iteration and reused in every
  iteration. This is what Bell/Dalton/Olson (and hence CUSP and ViennaCL) do, and it
  is prone to dependency chains.
* ``xor`` — per-iteration priorities from the plain xorshift hash of
  ``(iteration, vertex)``. Included because the paper shows it is surprisingly *bad*
  (correlated across iterations).
* ``xorstar`` — per-iteration priorities from the xorshift* hash; the scheme used by
  the Kokkos Kernels implementation and by this reproduction's Algorithm 1.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Union

import numpy as np

from .xorshift import hash_iter_vertex, xorshift64star

__all__ = [
    "PriorityScheme",
    "check_seed",
    "fixed_priorities",
    "iteration_priorities",
    "priority_scheme_names",
]


class PriorityScheme(str, Enum):
    """Priority-refresh scheme used by an MIS algorithm."""

    #: Priorities drawn once and reused every iteration (Bell et al.).
    FIXED = "fixed"
    #: Refreshed each iteration with the plain xorshift hash.
    XOR = "xor"
    #: Refreshed each iteration with the xorshift* hash (the paper's choice).
    XORSTAR = "xorstar"

    @classmethod
    def coerce(cls, value: Union[str, "PriorityScheme"]) -> "PriorityScheme":
        """Accept either an enum member or its string value."""
        if isinstance(value, PriorityScheme):
            return value
        try:
            return PriorityScheme(str(value).lower())
        except ValueError as exc:
            raise ValueError(
                f"unknown priority scheme {value!r}; expected one of "
                f"{[m.value for m in PriorityScheme]}"
            ) from exc


def priority_scheme_names() -> List[str]:
    """Names of the supported schemes, in Table I column order."""
    return [PriorityScheme.FIXED.value, PriorityScheme.XOR.value, PriorityScheme.XORSTAR.value]


def check_seed(seed: int) -> int:
    """``seed`` as a Python int. It must be an integer in ``[0, 2**64)``;
    anything else, a bool included, raises ``ValueError``."""
    if (
        isinstance(seed, bool)
        or not isinstance(seed, (int, np.integer))
        or not 0 <= int(seed) < 2**64
    ):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def fixed_priorities(num_vertices: int, seed: int = 0) -> np.ndarray:
    """Priorities chosen once for all iterations (Bell's scheme).

    Each vertex gets ``xorshift64star(seed_hash ^ xorshift64star(v + 1))`` — i.e. a
    deterministic pseudo-random value that does not change between iterations.
    ``seed`` must pass :func:`check_seed`.
    """
    if num_vertices < 0:
        raise ValueError("num_vertices must be >= 0")
    seed = check_seed(seed)
    vertices = np.arange(num_vertices, dtype=np.uint64)
    # The golden-ratio offset wraps modulo 2**64, as a uint64 add would.
    seed_hash = xorshift64star(np.uint64((seed + 0x9E3779B97F4A7C15) % 2**64))
    return xorshift64star(seed_hash ^ xorshift64star(vertices + np.uint64(1)))


def iteration_priorities(
    scheme: Union[str, PriorityScheme],
    iteration: int,
    num_vertices: int,
    seed: int = 0,
) -> np.ndarray:
    """Priorities for one iteration of the MIS-2 main loop under ``scheme``.

    For the ``fixed`` scheme the result is independent of ``iteration``; for the hash
    schemes it is ``h(iteration, v)`` per Section V-A.
    """
    scheme = PriorityScheme.coerce(scheme)
    if scheme is PriorityScheme.FIXED:
        return fixed_priorities(num_vertices, seed=seed)
    vertices = np.arange(num_vertices, dtype=np.uint64)
    return hash_iter_vertex(iteration, vertices, star=(scheme is PriorityScheme.XORSTAR))
