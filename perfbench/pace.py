"""The host-speed probe the ``amg`` and ``partitioned`` workloads time between
their requests.

On a shared host the other tenants make the same code run 20-40% faster or
slower from one minute to the next: one process's median ``amg`` solve
ranged 147-207 ms over four minutes, and the middle half of ten runs'
medians spread 17-30% of their median. The probe is a fixed amount of the
workload's own kind of work, in plain SciPy, NumPy and Python, never through
the library: sparse matrix-vector products and vector updates over a copy of
the workload's matrix, and for ``partitioned``, whose calls are mostly
Python, a loop of dictionary updates. Over those four minutes the ``amg``
probe's medians followed the solve's (correlation 0.98 over 10-second
windows), and the solve time divided by the probe time spread 2-4% where the
solve time spread 10-16%. The workloads' timings are reported at the
probe's nominal speed (``report.PACE_NOMINAL_MS``): a change to the library
moves them in full, and most of the host's drift cancels.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

import numpy as np
import scipy.sparse as sp

__all__ = ["Pace"]


class Pace:
    """``pace()`` runs the probe once and returns its seconds: ``rounds``
    products with ``matrix``, then ``python_steps`` dictionary updates."""

    def __init__(self, matrix: sp.spmatrix, rounds: int, python_steps: int = 0) -> None:
        self.matrix = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        self.vector = np.random.default_rng(0).standard_normal(self.matrix.shape[0])
        self.rounds = rounds
        self.python_steps = python_steps

    def __call__(self) -> float:
        start = perf_counter()
        y = self.vector
        for _ in range(self.rounds):
            z = self.matrix @ y
            z += 0.5 * y
            y = z / float(np.linalg.norm(z))
        counts: Dict[int, int] = {}
        for i in range(self.python_steps):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        return perf_counter() - start
