"""The 17-matrix evaluation suite.

The paper evaluates on 15 SuiteSparse matrices plus two Trilinos/Galeri problems
(Laplace3D_100 and Elasticity3D_60). The SuiteSparse files are not available in this
offline environment, so every matrix has a **synthetic stand-in** generated to match
its published degree profile (Table II of the paper): 2-D 5-point grids for the
low-degree problems, 3-D 7-point and 27-point stencil grids for the FEM problems, and
random near-regular graphs for the high-degree irregular problems. The stand-ins are
generated at a configurable ``scale`` (fraction of the paper's vertex count); the
benchmark default keeps each graph in the tens of thousands of vertices so the whole
suite runs in seconds on two CPU cores.

Every :class:`MatrixRecord` also carries the *published* reference numbers used by the
experiment drivers (Table I iteration counts, Table II statistics and per-device
times, Table IV MIS-2 sizes) so the drivers can print paper-vs-measured rows
without hard-coding the data in several places.

If real SuiteSparse ``.mtx`` files are available locally, pass ``mtx_dir`` to
:func:`load_suite_graph` and the real matrix is used instead of the stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from . import generators
from .build import from_scipy, to_scipy
from .csr import CSRGraph
from .io import read_matrix_market

__all__ = [
    "MatrixRecord",
    "SUITE",
    "suite_names",
    "load_suite_graph",
    "load_suite_matrix",
    "paper_statistics",
    "DEFAULT_SCALE",
]

#: Default fraction of the paper's vertex count used for the synthetic stand-ins.
DEFAULT_SCALE = 0.02


@dataclass(frozen=True)
class MatrixRecord:
    """Metadata and published reference data for one suite matrix."""

    #: Matrix name as used in the paper.
    name: str
    #: Generator family used for the synthetic stand-in
    #: (one of ``grid2d``, ``laplace3d``, ``stencil27``, ``stencil27_thin``,
    #: ``elasticity3d``, ``random_regular``).
    kind: str
    #: Published number of vertices (millions), Table II.
    paper_nv_millions: float
    #: Published number of stored nonzeros/edge slots (millions), Table II.
    paper_ne_millions: float
    #: Published average degree, Table II.
    paper_avg_degree: float
    #: Published maximum degree, Table II.
    paper_max_degree: int
    #: Published mean MIS-2 times in milliseconds per device, Table II
    #: (keys: ``v100``, ``mi100``, ``skylake``, ``tx2``).
    paper_times_ms: Dict[str, float] = field(default_factory=dict)
    #: Published iteration counts, Table I (keys: ``fixed``, ``xor``, ``xorstar``).
    paper_iterations: Dict[str, int] = field(default_factory=dict)
    #: Published MIS-2 sizes, Table IV (keys: ``kk``, ``cusp``, ``viennacl``).
    paper_mis2_sizes: Dict[str, int] = field(default_factory=dict)
    #: Extra generator parameters (e.g. target degree for random_regular).
    params: Dict[str, float] = field(default_factory=dict)
    #: Whether this matrix is one of the paper's 17 (bodyy5 from Table VI is not).
    in_main_suite: bool = True

    @property
    def paper_num_vertices(self) -> int:
        return int(round(self.paper_nv_millions * 1e6))


def _rec(
    name: str,
    kind: str,
    nv: float,
    ne: float,
    avg: float,
    mx: int,
    times: Tuple[float, float, float, float] | None = None,
    iters: Tuple[int, int, int] | None = None,
    mis2: Tuple[int, int, int] | None = None,
    params: Optional[Dict[str, float]] = None,
    in_main_suite: bool = True,
) -> MatrixRecord:
    return MatrixRecord(
        name=name,
        kind=kind,
        paper_nv_millions=nv,
        paper_ne_millions=ne,
        paper_avg_degree=avg,
        paper_max_degree=mx,
        paper_times_ms=(
            {"v100": times[0], "mi100": times[1], "skylake": times[2], "tx2": times[3]}
            if times
            else {}
        ),
        paper_iterations=(
            {"fixed": iters[0], "xor": iters[1], "xorstar": iters[2]} if iters else {}
        ),
        paper_mis2_sizes=(
            {"kk": mis2[0], "cusp": mis2[1], "viennacl": mis2[2]} if mis2 else {}
        ),
        params=params or {},
        in_main_suite=in_main_suite,
    )


#: The evaluation suite, in the order of the paper's Table II (plus bodyy5 from Table VI).
SUITE: Dict[str, MatrixRecord] = {
    r.name: r
    for r in [
        _rec("af_shell7", "stencil27_thin", 0.505, 9.047, 17.92, 35,
             (3.55, 4.75, 4.90, 6.47), (11, 23, 8), (9708, 9742, 9772)),
        _rec("apache2", "grid2d", 0.715, 2.767, 3.87, 4,
             (2.71, 3.44, 4.37, 4.73), (13, 21, 10), (67750, 67802, 67884)),
        _rec("audikw_1", "random_regular", 0.944, 39.298, 41.64, 114,
             (8.42, 16.3, 49.6, 57.7), (14, 22, 10), (4263, 4201, 4186),
             params={"degree": 42}),
        _rec("ecology2", "grid2d", 1.000, 2.998, 3.0, 3,
             (2.95, 3.05, 4.84, 5.09), (12, 11, 8), (139431, 140110, 139813)),
        _rec("Elasticity3D_60", "elasticity3d", 0.648, 50.758, 78.33, 81,
             (5.90, 11.3, 14.3, 20.2), (13, 23, 10), (4833, 4791, 4784)),
        _rec("Emilia_923", "stencil27", 0.923, 20.964, 22.71, 48,
             (6.84, 9.44, 18.7, 17.8), (13, 20, 11), (11445, 11420, 11427)),
        _rec("Fault_639", "stencil27", 0.639, 14.627, 22.9, 114,
             (5.07, 7.05, 9.18, 13.3), (13, 26, 10), (7901, 7835, 7877)),
        _rec("Geo_1438", "stencil27", 1.438, 32.297, 22.46, 48,
             (9.95, 13.2, 32.0, 27.9), (14, 26, 11), (18168, 18218, 18161)),
        _rec("Hook_1498", "stencil27", 1.498, 31.208, 20.83, 57,
             (10.1, 13.9, 19.0, 29.5), (14, 26, 11), (21469, 20966, 21077)),
        _rec("Laplace3D_100", "laplace3d", 1.0, 6.94, 6.94, 7,
             (3.34, 4.21, 6.21, 6.71), (14, 20, 10), (90041, 90198, 90180)),
        _rec("ldoor", "stencil27", 0.952, 23.737, 24.93, 49,
             (6.18, 11.7, 19.2, 18.8), (11, 16, 8), (12464, 12326, 12369)),
        _rec("parabolic_fem", "grid2d", 0.526, 2.1, 3.99, 7,
             (2.18, 3.02, 4.44, 4.07), (11, 9, 9), (50396, 50526, 50530)),
        _rec("PFlow_742", "stencil27", 0.743, 18.941, 25.5, 58,
             (6.16, 12.5, 11.4, 17.7), (14, 39, 12), (64880, 64763, 64767)),
        _rec("Serena", "stencil27", 1.391, 32.962, 23.69, 201,
             (9.96, 13.4, 33.1, 32.1), (14, 22, 11), (16575, 16451, 16439)),
        _rec("StocF-1465", "laplace3d", 1.465, 11.235, 7.67, 80,
             (6.48, 10.5, 13.4, 17.0), (14, 28, 10), (83419, 83401, 83274)),
        _rec("thermal2", "grid2d", 1.228, 4.904, 3.99, 10,
             (3.94, 4.40, 12.3, 13.5), (12, 17, 9), (118217, 118426, 118327)),
        _rec("tmt_sym", "grid2d", 0.727, 2.904, 4.0, 5,
             (2.45, 2.98, 4.54, 4.97), (12, 18, 8), (68827, 68769, 68835)),
        # bodyy5 appears only in Table VI (cluster Gauss-Seidel comparison).
        _rec("bodyy5", "grid2d", 0.0186, 0.111, 5.96, 8, in_main_suite=False),
    ]
}


def suite_names(main_only: bool = True) -> List[str]:
    """Names of the suite matrices, in Table II order."""
    return [n for n, r in SUITE.items() if r.in_main_suite or not main_only]


def paper_statistics(name: str) -> MatrixRecord:
    """Return the :class:`MatrixRecord` (published reference data) for ``name``."""
    if name not in SUITE:
        raise KeyError(f"unknown suite matrix {name!r}; known: {sorted(SUITE)}")
    return SUITE[name]


# ----------------------------------------------------------------------- stand-ins
def _grid_dims_2d(target_nv: int) -> Tuple[int, int]:
    side = max(2, int(round(np.sqrt(target_nv))))
    return side, side


def _grid_dims_3d(target_nv: int) -> Tuple[int, int, int]:
    side = max(2, int(round(target_nv ** (1.0 / 3.0))))
    return side, side, side


def _generate_matrix(record: MatrixRecord, scale: float, seed: int) -> sp.csr_matrix:
    """Generate the synthetic stand-in matrix for ``record`` at ``scale``."""
    target_nv = max(64, int(round(record.paper_num_vertices * scale)))
    kind = record.kind
    if kind == "grid2d":
        nx, ny = _grid_dims_2d(target_nv)
        return generators.laplace2d(nx, ny)
    if kind == "laplace3d":
        nx, ny, nz = _grid_dims_3d(target_nv)
        return generators.laplace3d_matrix(nx, ny, nz)
    if kind == "stencil27":
        nx, ny, nz = _grid_dims_3d(target_nv)
        graph = generators.elasticity3d_matrix(nx, ny, nz, dofs_per_node=1, seed=seed)
        return graph
    if kind == "stencil27_thin":
        # Layered (shell-like) problem: thin third dimension.
        nz = 5
        side = max(2, int(round(np.sqrt(target_nv / nz))))
        return generators.elasticity3d_matrix(side, side, nz, dofs_per_node=1, seed=seed)
    if kind == "elasticity3d":
        # 3 dofs per node: pick the node grid so total dofs ~= target.
        nodes = max(27, target_nv // 3)
        nx, ny, nz = _grid_dims_3d(nodes)
        return generators.elasticity3d_matrix(nx, ny, nz, dofs_per_node=3, seed=seed)
    if kind == "random_regular":
        degree = int(record.params.get("degree", 16))
        graph = generators.random_regular(target_nv, degree, seed=seed)
        A = to_scipy(graph)
        # Laplacian-like SPD matrix on the random graph so solver benches can use it.
        degs = np.asarray(A.sum(axis=1)).ravel()
        return sp.csr_matrix(sp.diags(degs + 1.0) - A)
    raise ValueError(f"unknown generator kind {kind!r} for matrix {record.name!r}")


def load_suite_matrix(
    name: str,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    mtx_dir: Optional[str] = None,
) -> sp.csr_matrix:
    """Load (or synthesise) the suite matrix ``name`` as a SciPy CSR matrix.

    Parameters
    ----------
    name:
        Suite matrix name (see :func:`suite_names`).
    scale:
        Fraction of the paper's vertex count to generate for the stand-in.
        Ignored when a real ``.mtx`` file is found in ``mtx_dir``.
    seed:
        Seed for the random generators (deterministic per (name, scale, seed)).
    mtx_dir:
        Optional directory containing real SuiteSparse files named ``<name>.mtx``
        or ``<name>.mtx.gz``; when present the real matrix is used.
    """
    record = paper_statistics(name)
    if mtx_dir is not None:
        base = Path(mtx_dir)
        for suffix in (".mtx", ".mtx.gz"):
            candidate = base / f"{name}{suffix}"
            if candidate.exists():
                return read_matrix_market(candidate)
    if scale <= 0:
        raise ValueError("scale must be positive")
    return _generate_matrix(record, scale, seed)


def load_suite_graph(
    name: str,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    mtx_dir: Optional[str] = None,
) -> CSRGraph:
    """Load (or synthesise) the suite matrix ``name`` as a :class:`CSRGraph`."""
    return from_scipy(load_suite_matrix(name, scale=scale, seed=seed, mtx_dir=mtx_dir))
