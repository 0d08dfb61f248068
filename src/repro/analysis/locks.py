"""Lock-discipline rule: a static race detector driven by annotations.

Declare the lock protecting an attribute on its declaring line::

    self.stats = ServiceStats()  # guarded-by: _stats_lock
    caches: Dict[Tuple[str, int], _Cached] = field(default_factory=dict)  # guarded-by: lock
    _POOLS: Dict[int, Pool] = {}  # guarded-by: _POOL_LOCK   (module global)

Every later read or write of ``<base>.stats`` must then sit inside
``with <base>._stats_lock:`` (any enclosing ``with``, nested or not, counts;
a single-assignment alias of the lock object is recognised).  Functions whose
*callers* hold the lock are annotated on their ``def`` line::

    def _apply_mutation(self, entry: _Entry) -> None:  # holds: lock

Constructors (``__init__``/``__post_init__``) of the declaring class are
exempt for ``self.<attr>`` — the object is not yet shared.  Manual
``lock.acquire()``/``release()`` pairs are deliberately *not* recognised:
the contract is the ``with`` statement, so hand-rolled acquire sites show up
as findings and need an explicit justified suppression.

Findings: ``lock-guard`` (unguarded access), ``lock-annotation`` (an
annotation comment that attaches to no statement — usually a typo).

The parsed :class:`Annotations` are also consumed by the lockset-inference
race rule (:mod:`repro.analysis.races`), which cross-checks what the code
*actually* holds against what these comments *claim* — a contradicted or
missing annotation surfaces there as ``race-annotation-mismatch`` /
``race-missing-annotation``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import AnalysisContext, Rule
from .findings import Finding, comment_tokens
from .modules import ModuleInfo

GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")
HOLDS_RE = re.compile(
    r"#\s*holds:\s*(?P<locks>[A-Za-z_][A-Za-z0-9_]*(?:\s*,\s*[A-Za-z_][A-Za-z0-9_]*)*)"
)


@dataclass
class Annotations:
    """Parsed lock annotations for one module."""

    #: attribute name -> lock names that may guard it
    attr_locks: Dict[str, Set[str]] = field(default_factory=dict)
    #: attribute name -> class names that declare it (for __init__ exemption)
    attr_classes: Dict[str, Set[str]] = field(default_factory=dict)
    #: module-global name -> lock names
    global_locks: Dict[str, Set[str]] = field(default_factory=dict)
    #: id(FunctionDef) -> lock names the caller is promised to hold
    holds: Dict[int, Set[str]] = field(default_factory=dict)
    #: annotation comments that attached to nothing
    dangling: List[Tuple[int, str]] = field(default_factory=list)


def _statement_at(info: ModuleInfo, line: int) -> Optional[ast.stmt]:
    """The assignment statement carrying a ``guarded-by`` comment on ``line``."""
    exact: Optional[ast.stmt] = None
    spanning: Optional[ast.stmt] = None
    for node in ast.walk(info.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        if node.lineno == line:
            exact = node
            break
        end = getattr(node, "end_lineno", node.lineno)
        if node.lineno <= line <= end:
            spanning = node
    return exact or spanning


def _function_at(info: ModuleInfo, line: int) -> Optional[ast.AST]:
    """The ``def`` whose signature contains ``line`` (for ``holds`` comments)."""
    for node in ast.walk(info.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body_start = node.body[0].lineno if node.body else node.lineno + 1
            if node.lineno <= line < body_start:
                return node
    return None


def parse_annotations(info: ModuleInfo) -> Annotations:
    ann = Annotations()
    for lineno, text in comment_tokens(info.source):
        guarded = GUARDED_RE.search(text)
        if guarded is not None:
            _attach_guarded(info, ann, lineno, guarded.group("lock"))
        holds = HOLDS_RE.search(text)
        if holds is not None:
            func = _function_at(info, lineno)
            if func is None:
                ann.dangling.append((lineno, "holds"))
            else:
                locks = {part.strip() for part in holds.group("locks").split(",")}
                ann.holds.setdefault(id(func), set()).update(locks)
    return ann


def _attach_guarded(info: ModuleInfo, ann: Annotations, line: int, lock: str) -> None:
    stmt = _statement_at(info, line)
    if stmt is None:
        ann.dangling.append((line, "guarded-by"))
        return
    targets: List[ast.expr]
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    else:
        targets = [stmt.target]
    attached = False
    for target in targets:
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            # self.<attr> = ... inside a method
            klass = info.enclosing_class(stmt)
            ann.attr_locks.setdefault(target.attr, set()).add(lock)
            if klass is not None:
                ann.attr_classes.setdefault(target.attr, set()).add(klass.name)
            attached = True
        elif isinstance(target, ast.Name):
            klass = info.enclosing_class(stmt)
            if klass is not None and info.enclosing_function(stmt) is None:
                # class-body declaration (dataclass field)
                ann.attr_locks.setdefault(target.id, set()).add(lock)
                ann.attr_classes.setdefault(target.id, set()).add(klass.name)
                attached = True
            elif info.enclosing_function(stmt) is None:
                # module-level global
                ann.global_locks.setdefault(target.id, set()).add(lock)
                attached = True
    if not attached:
        ann.dangling.append((line, "guarded-by"))


def _alias_map(info: ModuleInfo, func: Optional[ast.AST]) -> Dict[str, str]:
    """Single-assignment ``name = <expr>`` aliases within ``func``."""
    if func is None:
        return {}
    values: Dict[str, Optional[str]] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                dump = ast.unparse(node.value)
                if target.id in values and values[target.id] != dump:
                    values[target.id] = None  # reassigned: not a stable alias
                else:
                    values[target.id] = dump
    return {name: dump for name, dump in values.items() if dump is not None}


class LockDisciplineRule(Rule):
    ids = ("lock-guard", "lock-annotation")
    name = "lock-discipline"
    example = """
class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def bump(self):
        self.count += 1             # lock-guard: not inside `with self._lock:`
"""

    def check(self, info: ModuleInfo, context: AnalysisContext) -> Iterator[Finding]:
        ann = parse_annotations(info)
        for line, kind in ann.dangling:
            yield Finding(
                path=info.path, line=line, rule="lock-annotation",
                message=f"`# {kind}:` annotation does not attach to a "
                + ("def statement" if kind == "holds" else "declaring assignment"),
            )
        if not ann.attr_locks and not ann.global_locks:
            return
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Attribute) and node.attr in ann.attr_locks:
                finding = self._check_attr_access(info, ann, node)
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.Name) and node.id in ann.global_locks:
                finding = self._check_global_access(info, ann, node)
                if finding is not None:
                    yield finding

    # --------------------------------------------------------------- helpers
    def _held_guards(
        self, info: ModuleInfo, ann: Annotations, node: ast.AST
    ) -> Tuple[Set[str], Set[str]]:
        """(with-item expression dumps in scope, holds-locks of enclosing defs)."""
        func = info.enclosing_function(node)
        aliases = _alias_map(info, func)
        with_exprs: Set[str] = set()
        holds: Set[str] = set()
        for anc in info.ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    dump = ast.unparse(item.context_expr)
                    with_exprs.add(dump)
                    resolved = aliases.get(dump)
                    if resolved is not None:
                        with_exprs.add(resolved)
            elif isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                holds.update(ann.holds.get(id(anc), set()))
        return with_exprs, holds

    def _check_attr_access(
        self, info: ModuleInfo, ann: Annotations, node: ast.Attribute
    ) -> Optional[Finding]:
        attr = node.attr
        # `obj.name(...)` invokes a method that happens to share the guarded
        # attribute's name (per-module namespace); the method body is checked
        # at its definition via `# holds:`, not at every call site.
        parent = info.parent_map().get(id(node))
        if isinstance(parent, ast.Call) and parent.func is node:
            return None
        base_dump = ast.unparse(node.value)
        # Constructor of the declaring class builds the object privately.
        func = info.enclosing_function(node)
        if (
            base_dump == "self"
            and isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and func.name in ("__init__", "__post_init__")
        ):
            klass = info.enclosing_class(node)
            if klass is not None and klass.name in ann.attr_classes.get(attr, set()):
                return None
        with_exprs, holds = self._held_guards(info, ann, node)
        locks = ann.attr_locks[attr]
        if holds & locks:
            return None
        for lock in locks:
            if f"{base_dump}.{lock}" in with_exprs:
                return None
        lock = sorted(locks)[0]
        return Finding(
            path=info.path,
            line=node.lineno,
            rule="lock-guard",
            message=(
                f"'{base_dump}.{attr}' is guarded by '{lock}' but accessed "
                f"outside `with {base_dump}.{lock}:` (or annotate the "
                f"function `# holds: {lock}`)"
            ),
        )

    def _check_global_access(
        self, info: ModuleInfo, ann: Annotations, node: ast.Name
    ) -> Optional[Finding]:
        func = info.enclosing_function(node)
        if func is None:
            return None  # module import time is single-threaded
        with_exprs, holds = self._held_guards(info, ann, node)
        locks = ann.global_locks[node.id]
        if holds & locks:
            return None
        if any(lock in with_exprs for lock in locks):
            return None
        lock = sorted(locks)[0]
        return Finding(
            path=info.path,
            line=node.lineno,
            rule="lock-guard",
            message=(
                f"module global '{node.id}' is guarded by '{lock}' but "
                f"accessed outside `with {lock}:` (or annotate the function "
                f"`# holds: {lock}`)"
            ),
        )
