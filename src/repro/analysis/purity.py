"""Picklability and backend purity at the execution seam.

* ``pickle-callable`` — the first argument to ``map_graphs`` and to a
  resident session's ``run`` crosses a process (or socket) boundary, so it
  must be a module-level callable.  Lambdas and functions defined
  inside another function close over frames and fail (or silently diverge)
  in the chunked backend's process pool and over the distributed backend's
  sockets.  ``functools.partial`` is unwrapped — its underlying callable is
  checked instead.
* ``backend-concrete`` — code that picks a backend (a partitioned kernel's
  session, the bench harness's ``map_graphs``) takes a name or instance and
  resolves it through the registry's ``get_backend``; instantiating a
  concrete ``*Backend`` class anywhere else hard-wires an execution strategy
  and breaks the equivalence matrix.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from .engine import AnalysisContext, Rule
from .findings import Finding
from .modules import ModuleInfo

#: Seam entry points whose first positional argument must be picklable.
SEAM_CALLS: Tuple[str, ...] = (
    "map_graphs",
    "map_partitions_resident",
    "run",
)

#: Concrete backend classes; only these modules may instantiate them.
CONCRETE_BACKENDS: Tuple[str, ...] = (
    "NumpyBackend",
    "ChunkedBackend",
    "DistributedBackend",
)
BACKEND_HOME_MODULES: Tuple[str, ...] = (
    "repro.parallel.backends",
    "repro.parallel.distributed",
)


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function (unpicklable)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if inner is node:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(inner.name)
    return names


class PurityRule(Rule):
    ids = ("pickle-callable", "backend-concrete")
    name = "purity"
    example = """
def run(backend, graphs):
    def kernel(g):                  # nested: closes over this frame
        return g.num_vertices
    return backend.map_graphs(kernel, graphs)   # pickle-callable
"""

    def check(self, info: ModuleInfo, context: AnalysisContext) -> Iterator[Finding]:
        if not info.module.startswith("repro."):
            return
        nested = _nested_function_names(info.tree)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._call_name(node.func)
            if name in SEAM_CALLS and node.args:
                finding = self._check_callable(info, node, node.args[0], nested)
                if finding is not None:
                    yield finding
            if (
                name in CONCRETE_BACKENDS
                and info.module not in BACKEND_HOME_MODULES
            ):
                yield Finding(
                    path=info.path,
                    line=node.lineno,
                    rule="backend-concrete",
                    message=(
                        f"instantiating {name} outside the backend registry; "
                        "accept backend= and resolve via repro.parallel.backends"
                    ),
                )

    def _call_name(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _check_callable(
        self, info: ModuleInfo, call: ast.Call, fn: ast.expr, nested: Set[str]
    ) -> Optional[Finding]:
        seam = self._call_name(call.func) or "seam call"
        # functools.partial(fn, ...) -> check the wrapped callable.
        if isinstance(fn, ast.Call) and self._call_name(fn.func) == "partial" and fn.args:
            return self._check_callable(info, call, fn.args[0], nested)
        if isinstance(fn, ast.Lambda):
            return Finding(
                path=info.path,
                line=fn.lineno,
                rule="pickle-callable",
                message=(
                    f"lambda passed to {seam}() cannot cross the process "
                    "boundary; hoist it to a module-level function"
                ),
            )
        if isinstance(fn, ast.Name) and fn.id in nested and info.enclosing_function(call):
            return Finding(
                path=info.path,
                line=fn.lineno,
                rule="pickle-callable",
                message=(
                    f"'{fn.id}' passed to {seam}() is defined inside a "
                    "function and is not picklable; hoist it to module level"
                ),
            )
        return None
