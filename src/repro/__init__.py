"""repro — reproduction of Kelley & Rajamanickam, *Parallel, Portable Algorithms for
Distance-2 Maximal Independent Set and Graph Coarsening* (IPDPS 2022).

The package is organised as a small stack:

* :mod:`repro.util` — timers and tables.
* :mod:`repro.graph` — compressed-row-storage graphs, generators, the 17-matrix suite.
* :mod:`repro.parallel` — a Kokkos-like portable execution substrate plus device cost models.
* :mod:`repro.hashing` — xorshift/xorshift* hashing and compressed status-tuple packing.
* :mod:`repro.mis` — the paper's Algorithm 1 (distance-2 MIS) and all baselines.
* :mod:`repro.coloring` — parallel greedy distance-1/2 coloring.
* :mod:`repro.coarsen` — MIS-2 based aggregation (Algorithms 2 and 3) and baselines.
* :mod:`repro.solvers` — smoothed-aggregation AMG, CG, GMRES.
* :mod:`repro.gs` — point and cluster multicolor Gauss-Seidel preconditioners (Algorithm 4).
* :mod:`repro.partition` — multilevel graph partitioning built on MIS-2 coarsening (the paper's future-work application).
* :mod:`repro.bench` — drivers that regenerate every table and figure of the paper.

Quickstart::

    import repro
    G = repro.graph.laplace3d(20, 20, 20)
    result = repro.mis.kk_mis2(G)
    assert repro.mis.verify_mis(G, result.in_set, k=2)
"""

from __future__ import annotations

from . import util  # noqa: F401
from . import graph  # noqa: F401
from . import parallel  # noqa: F401
from . import hashing  # noqa: F401
from . import mis  # noqa: F401
from . import coloring  # noqa: F401
from . import coarsen  # noqa: F401
from . import solvers  # noqa: F401
from . import gs  # noqa: F401
from . import partition  # noqa: F401
from . import bench  # noqa: F401

__version__ = "1.0.0"

__all__ = [
    "util",
    "graph",
    "parallel",
    "hashing",
    "mis",
    "coloring",
    "coarsen",
    "solvers",
    "gs",
    "partition",
    "bench",
    "__version__",
]
