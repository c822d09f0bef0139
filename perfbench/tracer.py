"""Spans recorded by wrapping the engine's public functions.

The engine is not instrumented from the inside: :meth:`Tracer.wrap`
replaces a module function or class attribute with a wrapper that
records one :class:`Span` per call, and :meth:`Tracer.unwrap_all`
puts every original back.  Spans are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

#: A span name, or a function of ``(args, kwargs, result)`` that picks
#: one per call (``None`` drops the span).
SpanName = Union[str, Callable[[tuple, dict, Any], Optional[str]]]


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    read_id: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables, one stack per thread.

    A span's read id is its parent's; a root span takes the read id
    its thread set with :meth:`set_read`, else its own span id (so a
    worker thread's spans group per served request).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- client side ---------------------------------------------------
    def set_read(self, read_id: Optional[int]) -> None:
        """Tag the calling thread's next root spans with ``read_id``."""
        self._local.read_id = read_id

    def _stack(self) -> List[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: SpanName, func: Callable[..., Any],
             args: tuple, kwargs: dict) -> Any:
        """Run ``func(*args, **kwargs)`` inside a span."""
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent, read_id = stack[-1]
        else:
            parent = None
            read_id = getattr(self._local, "read_id", None) or sid
        stack.append((sid, read_id))
        result = None
        start = self.clock()
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = self.clock()
            stack.pop()
            label = name if isinstance(name, str) else name(
                args, kwargs, result
            )
            if label is not None:
                self.spans.append(Span(
                    sid, label, start, end, parent, read_id,
                    threading.get_ident(),
                ))

    # -- patching ------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: SpanName) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a module or a class; static and class methods
        keep their kind.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, func, args, kwargs)

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children on the span's own thread nest inside it without
    overlapping, so their durations sum to the covered time; children
    are clipped to the parent's interval all the same.
    """
    spans = list(spans)
    by_id = {span.sid: span for span in spans}
    own = {span.sid: span.duration for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        covered = min(span.end, parent.end) - max(span.start, parent.start)
        own[parent.sid] -= max(0.0, covered)
    return own


def outermost(spans: Iterable[Span], name: str) -> List[Span]:
    """Spans called ``name`` not nested directly in another of the
    same name (``plan_many`` calling ``plan``, say)."""
    spans = list(spans)
    names = {span.sid: span.name for span in spans}
    return [
        span for span in spans
        if span.name == name and names.get(span.parent) != name
    ]
