"""NumPy dtype-flow analysis.

The stack's determinism guarantee is *bit*-identity, and NumPy's
size-dependent / platform-default promotion silently breaks it:
``np.cumsum`` / ``np.sum`` and friends promote ``bool`` and sub-64-bit
integer inputs to the *platform default* integer (``np.int_``: int64 on
Linux, int32 on Windows), and blocked implementations that pick a fixed
output dtype flip results exactly when the input crosses a block boundary —
a past blocked ``inclusive_scan`` uint64→int64 bug.  ``np.arange`` without
``dtype=`` and ``dtype=int`` / ``astype(int)`` are the same trap spelled
differently.

This rule propagates a small dtype lattice through each function with the
:mod:`~repro.analysis.dataflow` framework (assignments, arithmetic that
preserves dtype, ``astype``/constructor calls, the ``np.cumsum(x[:0]).dtype``
probing idiom) and reports ``dtype-size-dependent``: a promotion-prone
reduction/scan without an explicit ``dtype=`` whose operand is known to be
``bool`` or a sub-64-bit integer; ``np.arange`` without ``dtype=``;
``dtype=int`` / ``astype(int)``. It is scoped to the determinism closure (the
modules whose outputs are gated bit-identical).

The lattice is deliberately conservative: an operand whose dtype the
analysis cannot prove stays ``unknown`` and is never flagged, so the rule
has no false positives at the price of known false negatives (documented in
the README).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from .cfg import CFG, Step, build_cfg
from .dataflow import ForwardAnalysis, run_forward
from .determinism import DETERMINISM_SEEDS
from .engine import AnalysisContext, Rule
from .findings import Finding
from .modules import ModuleInfo

# ------------------------------------------------------------------- lattice
#: Lattice values are tagged tuples:
#: ``("concrete", name)`` a known dtype; ``("platform",)`` the platform
#: default int; ``("pyscalar",)`` a Python numeric literal (transparent in
#: arithmetic); ``("unknown",)`` ⊤.
Value = Tuple[str, ...]

UNKNOWN: Value = ("unknown",)
PLATFORM: Value = ("platform",)
PYSCALAR: Value = ("pyscalar",)

#: dtypes that NumPy reductions/scans promote to the platform default int.
PROMOTABLE = frozenset(
    {"bool", "int8", "int16", "int32", "uint8", "uint16", "uint32"}
)

#: Stable under reduction/scan promotion.
_PROMO_FIXED = frozenset({"int64", "uint64", "float32", "float64", "complex64", "complex128"})

#: ``np.<name>`` / ``<arr>.<name>()`` reductions and scans that promote.
PROMOTING_CALLS = frozenset({"cumsum", "cumprod", "sum", "prod"})

#: NumPy dtype attribute names → lattice value.
_DTYPE_ATTRS: Dict[str, Value] = {
    "bool_": ("concrete", "bool"),
    "int8": ("concrete", "int8"),
    "int16": ("concrete", "int16"),
    "int32": ("concrete", "int32"),
    "int64": ("concrete", "int64"),
    "uint8": ("concrete", "uint8"),
    "uint16": ("concrete", "uint16"),
    "uint32": ("concrete", "uint32"),
    "uint64": ("concrete", "uint64"),
    "float32": ("concrete", "float32"),
    "float64": ("concrete", "float64"),
    "complex64": ("concrete", "complex64"),
    "complex128": ("concrete", "complex128"),
    "int_": PLATFORM,
    "intp": PLATFORM,
    "uint": PLATFORM,
    "uintp": PLATFORM,
}


def join_values(a: Value, b: Value) -> Value:
    if a == b:
        return a
    if a == PYSCALAR:
        return b
    if b == PYSCALAR:
        return a
    return UNKNOWN


def promo_value(v: Value) -> Value:
    """Result dtype of an unqualified NumPy reduction/scan over ``v``."""
    if v[0] == "concrete":
        if v[1] in PROMOTABLE:
            return PLATFORM
        if v[1] in _PROMO_FIXED:
            return v
        return UNKNOWN
    return v if v == PLATFORM else UNKNOWN


def _np_attr_name(func: ast.expr) -> Optional[str]:
    """``np.<name>`` / ``numpy.<name>`` → name."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def _dtype_kw(call: ast.Call) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return None


# --------------------------------------------------------------- environment
Env = Dict[str, Value]
State = Tuple[Tuple[str, Value], ...]  # hashable, order-stable rendering


def _freeze(env: Env) -> State:
    return tuple(sorted((k, v) for k, v in env.items() if v != UNKNOWN))


def _thaw(state: State) -> Env:
    return dict(state)


class _DtypeInference:
    """Expression-level dtype inference against an environment."""

    # ------------------------------------------------------------- dtype args
    def dtype_of_expr(self, node: ast.expr, env: Env) -> Value:
        """The dtype a ``dtype=…`` argument denotes (not an array's dtype)."""
        if isinstance(node, ast.Attribute):
            if node.attr == "dtype":
                # <arr>.dtype — the probing idiom: dtype follows the array.
                return self.infer(node.value, env)
            if node.attr in _DTYPE_ATTRS and isinstance(node.value, ast.Name):
                if node.value.id in ("np", "numpy"):
                    return _DTYPE_ATTRS[node.attr]
            return UNKNOWN
        if isinstance(node, ast.Name):
            if node.id == "int":
                return PLATFORM
            if node.id == "float":
                return ("concrete", "float64")
            if node.id == "bool":
                return ("concrete", "bool")
            return UNKNOWN
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
            if name in _DTYPE_ATTRS:
                return _DTYPE_ATTRS[name]
            if name in PROMOTABLE or name in _PROMO_FIXED or name == "bool":
                return ("concrete", name)
            return UNKNOWN
        if isinstance(node, ast.Call):
            np_name = _np_attr_name(node.func)
            if np_name == "dtype" and node.args:
                return self.dtype_of_expr(node.args[0], env)
            # np.cumsum(x[:0]).dtype reached via Attribute above; a bare
            # promoting call used as a dtype is its result dtype.
            return self.infer(node, env)
        return UNKNOWN

    # ---------------------------------------------------------------- arrays
    def infer(self, node: ast.expr, env: Env) -> Value:
        if isinstance(node, ast.Name):
            return env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Subscript):
            return self.infer(node.value, env)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand, env)
        if isinstance(node, ast.BinOp):
            return join_values(self.infer(node.left, env), self.infer(node.right, env))
        if isinstance(node, ast.IfExp):
            return join_values(self.infer(node.body, env), self.infer(node.orelse, env))
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return PYSCALAR
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._infer_call(node, env)
        return UNKNOWN

    def _infer_call(self, node: ast.Call, env: Env) -> Value:
        func = node.func
        dtype_arg = _dtype_kw(node)
        np_name = _np_attr_name(func)
        if np_name is not None:
            if np_name in ("asarray", "array", "ascontiguousarray", "asfortranarray"):
                if dtype_arg is not None:
                    return self.dtype_of_expr(dtype_arg, env)
                return self.infer(node.args[0], env) if node.args else UNKNOWN
            if np_name in ("zeros", "ones", "empty"):
                if dtype_arg is not None:
                    return self.dtype_of_expr(dtype_arg, env)
                if len(node.args) >= 2:
                    return self.dtype_of_expr(node.args[1], env)
                return ("concrete", "float64")
            if np_name == "full":
                if dtype_arg is not None:
                    return self.dtype_of_expr(dtype_arg, env)
                return UNKNOWN
            if np_name in ("zeros_like", "ones_like", "empty_like", "full_like"):
                if dtype_arg is not None:
                    return self.dtype_of_expr(dtype_arg, env)
                return self.infer(node.args[0], env) if node.args else UNKNOWN
            if np_name == "arange":
                if dtype_arg is not None:
                    return self.dtype_of_expr(dtype_arg, env)
                if any(
                    isinstance(a, ast.Constant) and isinstance(a.value, float)
                    for a in node.args
                ):
                    return ("concrete", "float64")
                return PLATFORM
            if np_name in PROMOTING_CALLS:
                if dtype_arg is not None:
                    return self.dtype_of_expr(dtype_arg, env)
                if node.args:
                    return promo_value(self.infer(node.args[0], env))
                return UNKNOWN
            if np_name in ("where",) and len(node.args) == 3:
                return join_values(
                    self.infer(node.args[1], env), self.infer(node.args[2], env)
                )
            if np_name in ("minimum", "maximum") and len(node.args) == 2:
                return join_values(
                    self.infer(node.args[0], env), self.infer(node.args[1], env)
                )
            return UNKNOWN
        if isinstance(func, ast.Attribute):
            base = func.value
            if func.attr == "astype" and node.args:
                return self.dtype_of_expr(node.args[0], env)
            if func.attr in ("copy", "ravel", "reshape", "flatten", "squeeze"):
                return self.infer(base, env)
            if func.attr in PROMOTING_CALLS:
                if dtype_arg is not None:
                    return self.dtype_of_expr(dtype_arg, env)
                return promo_value(self.infer(base, env))
            if (
                func.attr == "type"
                and isinstance(base, ast.Attribute)
                and base.attr == "dtype"
            ):
                # x.dtype.type(0): a scalar carrying x's dtype.
                return self.infer(base.value, env)
            return UNKNOWN
        return UNKNOWN


class _DtypeAnalysis(ForwardAnalysis[State]):
    """Forward propagation of the dtype environment through a CFG."""

    def __init__(self, inference: _DtypeInference) -> None:
        self._inf = inference

    def entry_state(self) -> State:
        return ()

    def unreachable(self) -> State:
        return ()

    def join(self, a: State, b: State) -> State:
        ea, eb = _thaw(a), _thaw(b)
        out: Env = {}
        for key in ea.keys() & eb.keys():
            joined = join_values(ea[key], eb[key])
            if joined != UNKNOWN:
                out[key] = joined
        return _freeze(out)

    def transfer(self, state: State, step: Step) -> State:
        kind, node = step
        if kind != "stmt":
            return state
        env = _thaw(state)
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                env[target.id] = self._inf.infer(node.value, env)
                return _freeze(env)
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                for t, v in zip(target.elts, node.value.elts):
                    if isinstance(t, ast.Name):
                        env[t.id] = self._inf.infer(v, env)
                return _freeze(env)
            if isinstance(target, ast.Tuple):
                for t in target.elts:
                    if isinstance(t, ast.Name):
                        env.pop(t.id, None)
                return _freeze(env)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                env[node.target.id] = self._inf.infer(node.value, env)
                return _freeze(env)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            # x += y keeps x's dtype for arrays (in-place); keep the entry.
            return state
        return state


# ----------------------------------------------------------------------- rule
def _walk_expr(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression/statement without entering nested defs."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
        return
    yield node
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


class DtypeRule(Rule):
    ids = ("dtype-size-dependent",)
    name = "dtype-flow"
    example = """
def block_offsets(counts):
    lens = np.asarray(counts, dtype=np.uint32)
    return np.cumsum(lens)          # promotes to platform int -> size/platform
                                    # dependent; fix: np.cumsum(lens,
                                    #   dtype=np.cumsum(lens[:0]).dtype)
"""

    def check(self, info: ModuleInfo, context: AnalysisContext) -> Iterator[Finding]:
        if not info.module.startswith("repro"):
            return
        if info.module not in context.reachable_from(DETERMINISM_SEEDS):
            return
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(info, node)

    def _check_function(self, info: ModuleInfo, func: ast.AST) -> Iterator[Finding]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        inference = _DtypeInference()
        cfg = build_cfg(func)
        analysis = _DtypeAnalysis(inference)
        entry_states = run_forward(cfg, analysis)
        for block in cfg.blocks:
            state = entry_states[block.index]
            for step in block.steps:
                kind, node = step
                if kind in ("stmt", "expr"):
                    yield from self._check_promotions(info, node, _thaw(state), inference)
                state = analysis.transfer(state, step)

    # -------------------------------------------------- size/platform hazards
    def _check_promotions(
        self, info: ModuleInfo, node: ast.AST, env: Env, inference: _DtypeInference
    ) -> Iterator[Finding]:
        parents = info.parent_map()
        for sub in _walk_expr(node):
            if not isinstance(sub, ast.Call):
                continue
            parent = parents.get(id(sub))
            if isinstance(parent, ast.Attribute) and parent.attr == "dtype":
                # np.cumsum(x[:0]).dtype — the probing idiom *uses* promotion
                # to compute the reference dtype; only the dtype is read.
                continue
            np_name = _np_attr_name(sub.func)
            method = (
                sub.func.attr
                if isinstance(sub.func, ast.Attribute) and np_name is None
                else None
            )
            dtype_arg = _dtype_kw(sub)
            # dtype=int / astype(int): the platform default integer by name.
            check_dtype_expr: Optional[ast.expr] = dtype_arg
            if method == "astype" and sub.args:
                check_dtype_expr = sub.args[0]
            if (
                check_dtype_expr is not None
                and isinstance(check_dtype_expr, ast.Name)
                and check_dtype_expr.id == "int"
            ):
                yield Finding(
                    path=info.path, line=sub.lineno, rule="dtype-size-dependent",
                    message=(
                        "dtype=int resolves to the platform default integer "
                        "(int32 on Windows); spell the width explicitly "
                        "(np.int64)"
                    ),
                )
                continue
            if dtype_arg is not None:
                continue
            if np_name == "arange":
                if any(
                    isinstance(a, ast.Constant) and isinstance(a.value, float)
                    for a in sub.args
                ):
                    continue
                yield Finding(
                    path=info.path, line=sub.lineno, rule="dtype-size-dependent",
                    message=(
                        "np.arange without dtype= yields the platform default "
                        "integer (int32 on Windows); pass dtype=np.int64 so "
                        "downstream results cannot depend on the platform"
                    ),
                )
                continue
            operand: Optional[ast.expr] = None
            call_label = None
            if np_name in PROMOTING_CALLS and sub.args:
                operand = sub.args[0]
                call_label = f"np.{np_name}"
            elif method in PROMOTING_CALLS and isinstance(sub.func, ast.Attribute):
                operand = sub.func.value
                call_label = f".{method}()"
            if operand is None:
                continue
            value = inference.infer(operand, env)
            if value[0] == "concrete" and value[1] in PROMOTABLE:
                yield Finding(
                    path=info.path, line=sub.lineno, rule="dtype-size-dependent",
                    message=(
                        f"{call_label} on a {value[1]} operand promotes to the "
                        "platform default integer; pass an explicit dtype= "
                        "(e.g. dtype=np.int64) so the result dtype cannot "
                        "depend on platform or input size"
                    ),
                )
