"""Shape checks for the vectors the solvers and preconditioners take."""

from __future__ import annotations

import numpy as np

__all__ = ["as_vector"]


def as_vector(v: np.ndarray, n: int, name: str) -> np.ndarray:
    """``v`` as a float64 array of shape ``(n,)``, without a copy when it already is one.

    Any other shape raises ``ValueError`` before the caller does arithmetic with
    ``v``: a column of shape ``(n, 1)`` would otherwise broadcast against an
    ``(n,)`` vector into an ``n x n`` array.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    return v
