"""In-memory spans for the traced benchmark run.

The traced run times calls into each layer's public functions from outside the
library: :meth:`Tracer.patched` swaps a wrapper in at the module attribute the
caller looks up (``repro.gs.cluster.greedy_color``, not
``repro.coloring.greedy_color``), and :meth:`Tracer.wrap` wraps callables the
benchmark passes in (the aggregation function, the preconditioner).

A span records its name, start, end, parent and attributes. The root span of a
thread's call stack is an *operation* (one set-up or one request); every span
under it carries the root's id as its ``op``. Spans stay in memory and are
written out when the run ends. :class:`NullTracer` is the untraced run: it
wraps nothing and its spans record nothing.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "NullTracer", "self_times"]

#: ``(module, attribute, span name, attrs-from-result or None)``
Target = Tuple[object, str, str, Optional[Callable]]


@dataclass
class Span:
    sid: int
    name: str
    op: int
    parent: Optional[int]
    #: ``"setup"`` or ``"loop"``: the benchmark phase the operation ran in.
    phase: str
    thread: str
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "op": self.op,
            "parent": self.parent, "phase": self.phase, "thread": self.thread,
            "start": self.start, "end": self.end, "attrs": self.attrs,
        }


class Tracer:
    """Records spans from any thread; each thread keeps its own span stack."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []  # guarded-by: _lock
        #: Phase stamped on operations that start from now on.
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        span = Span(
            sid=sid,
            name=name,
            op=parent.op if parent else sid,
            parent=parent.sid if parent else None,
            phase=parent.phase if parent else self.phase,
            thread=threading.current_thread().name,
            start=perf_counter(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``attrs(result)`` adds attributes to it.

        ``functools.wraps`` keeps the signature visible to ``inspect``, so a
        callee that checks for a ``backend`` parameter still finds it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(result))
                return result

        return traced

    @contextmanager
    def patched(self, targets: Sequence[Target]):
        saved = []
        try:
            for module, attr, name, attrs in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, attrs))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def finished(self) -> List[Span]:
        with self._lock:
            return list(self.spans)


class _NullSpan:
    def __init__(self) -> None:
        self.attrs: Dict[str, float] = {}


class NullTracer:
    """The untraced run: the same calls, no wrappers, nothing recorded."""

    enabled = False
    phase = "setup"

    def span(self, name: str):
        return nullcontext(_NullSpan())

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        return fn

    def patched(self, targets: Sequence[Target]):
        return nullcontext()


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children run on their parent's thread inside its interval, so they never
    overlap one another and their durations simply add up.
    """
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.sid: span.duration - covered[span.sid] for span in spans}
