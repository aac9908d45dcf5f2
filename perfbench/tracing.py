"""In-memory span tracer that times calls into the program from outside it.

The benchmark never edits the program to trace it.  Instead, a traced run
replaces selected public functions and methods with thin timing wrappers
(``Tracer.wrap``) and restores the originals when the run ends.  Every span
records its name, start, end, parent span and request id; spans stay in
memory and are written out once, after the measured window.

Nesting is tracked per thread: a span opened while another is open on the
same thread becomes its child, so a layer's self time is its duration minus
the time its traced children cover.  Pool workers are separate processes,
so calls inside them cannot be seen here; wrappers that a forked worker
inherits pass straight through.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    """One timed call: ``[start_ns, end_ns)`` on one thread."""

    __slots__ = ("span_id", "name", "start_ns", "end_ns", "parent", "request_id", "thread")

    def __init__(self, span_id: int, name: str, parent: Optional["Span"], request_id: Any) -> None:
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.request_id = request_id
        self.thread = threading.get_ident()
        self.start_ns = time.perf_counter_ns()
        self.end_ns = self.start_ns

    @property
    def duration_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": None if self.parent is None else self.parent.span_id,
            "request_id": self.request_id,
            "thread": self.thread,
        }


class Tracer:
    """Collects spans from wrapped calls and from the benchmark's own code."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: ``(dispatch start, collect end)`` of every served batch, in ns.
        self.batches: List[tuple] = []
        #: Hooks that could not be installed, with the reason (a layer the
        #: program no longer exposes under the traced name).
        self.unavailable: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request_id: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if request_id is None:
            request_id = parent.request_id if parent is not None else f"{name}#{span_id}"
        span = Span(span_id, name, parent, request_id)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, request_id: Any = None) -> Iterator[Span]:
        """Time the ``with`` block as a span (for the benchmark's own steps)."""
        span = self.open(name, request_id)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def wrap(
        self,
        target: str,
        name: Any,
        on_call: Optional[Callable[..., None]] = None,
        on_result: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Time every call of ``target`` as a span called ``name``.

        ``target`` is ``"package.module:Class.method"`` or
        ``"package.module:function"``.  ``name`` may be a callable receiving
        the call's arguments (e.g. to name a span after the method a memory
        serves).  ``on_call(args, kwargs)`` runs before the call, for
        counters; ``on_result(result, span)`` may replace the return value,
        e.g. to trace a returned ``collect`` callable.  A target this
        version of the program does not have is recorded in
        :attr:`unavailable` instead of failing the run.
        """
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner: Any = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError) as exc:
            self.unavailable[target] = f"not found in this version of the program: {exc}"
            return
        original = getattr(owner, attr, None)
        if not callable(original):
            self.unavailable[target] = "not found in this version of the program"
            return
        if isinstance(owner, type) and isinstance(
            owner.__dict__.get(attr), (staticmethod, classmethod)
        ):
            self.unavailable[target] = "static/class methods are not traced"
            return
        # An inherited method is shadowed on ``owner`` and deleted again on
        # uninstall, so the base class never changes.
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            if on_call is not None:
                on_call(args, kwargs)
            span = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                result = on_result(result, span)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, inherited))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._patches:
            owner, attr, original, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def within(self, start_ns: int, end_ns: int) -> List[Span]:
        """Spans that started inside ``[start_ns, end_ns]``."""
        return [s for s in self.spans if start_ns <= s.start_ns <= end_ns]

    @staticmethod
    def self_times_ms(spans: List[Span]) -> Dict[int, float]:
        """Self time (ms) of each span: its duration minus its children's."""
        child_ms: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_ms[span.parent.span_id] += span.duration_ms
        return {s.span_id: s.duration_ms - child_ms[s.span_id] for s in spans}

    def layer_table(self, spans: List[Span], window_s: float) -> Dict[str, dict]:
        """Per span name: calls, total and self ms, and self share of the window."""
        self_ms = self.self_times_ms(spans)
        table: Dict[str, dict] = {}
        for span in spans:
            row = table.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += span.duration_ms
            row["self_ms"] += self_ms[span.span_id]
        for row in table.values():
            row["self_share"] = row["self_ms"] / (window_s * 1e3) if window_s > 0 else 0.0
        return table


def mean_ms(spans: List[Span], name: str) -> float:
    """Mean duration (ms) of the spans called ``name`` (0 when none ran)."""
    durations = [s.duration_ms for s in spans if s.name == name]
    return sum(durations) / len(durations) if durations else 0.0
