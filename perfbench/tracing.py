"""An in-memory span tracer and the wrappers that attach it to the program.

Spans are recorded from the benchmark's side of each layer boundary: the
program is not edited, its functions are wrapped for the duration of a
traced run and restored afterwards.  Every span has a name, a start, an
end, a parent span and a trace id (one per query, batch or refresh).
Spans stay in memory and are written out when the run ends.

Self time is a span's busy time minus the time its child spans cover.
A child always runs inside its parent on one thread, and siblings never
overlap, so the covered time is the sum of the children's busy times.

A lazily consumed iterator gets one span whose busy time is the sum of
the time spent inside its ``__next__`` calls, not the wall time from its
creation to its exhaustion.  Each ``__next__`` segment counts as child
time of whichever span is consuming the iterator at that moment, so a
consumer such as ``finalize_matches`` does not book the tree search as
its own work.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    """One timed interval of one layer."""

    __slots__ = (
        "name", "span_id", "trace", "parent", "up", "start", "end",
        "busy", "child", "count", "attrs",
    )

    def __init__(
        self, name: str, span_id: int, up: Optional["Span"], trace: int,
        start: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.up = up
        self.parent = up.span_id if up is not None else None
        self.trace = trace
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        #: Items produced (iterator matches, result rows, page misses).
        self.count = 0
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def self_time(self) -> float:
        """Busy time not covered by child spans."""
        return self.busy - self.child

    def as_record(self) -> Dict[str, Any]:
        record = {
            "name": self.name,
            "id": self.span_id,
            "trace": self.trace,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            "self": self.self_time,
            "count": self.count,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, up: Optional[Span] = None) -> Span:
        """Start a span under ``up`` (default: the thread's open span)."""
        if up is None:
            up = self.current()
        span_id = next(self._ids)
        trace = up.trace if up is not None else span_id
        span = Span(name, span_id, up, trace, self.clock())
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, up: Optional[Span] = None) -> Iterator[Span]:
        """Time a block as one span on the calling thread."""
        span = self.open(name, up)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self.clock()
            span.busy = span.end - span.start
            if span.up is not None:
                span.up.child += span.busy

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call timed as a span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def iterate(self, inner: Any, name: str) -> "TracedIterator":
        """Wrap a lazy iterator so its span times only its own work."""
        return TracedIterator(self, iter(inner), name)

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def roots(self) -> Dict[int, str]:
        """trace id -> name of the trace's root span."""
        return {
            span.trace: span.name
            for span in self.spans
            if span.parent is None
        }

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_record()))
                handle.write("\n")


class TracedIterator:
    """An iterator whose span accumulates only time spent producing items."""

    def __init__(self, tracer: Tracer, inner: Iterator, name: str) -> None:
        self.tracer = tracer
        self.inner = inner
        self.name = name
        self.span: Optional[Span] = None

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self.tracer
        consumer = tracer.current()
        if self.span is None:
            self.span = tracer.open(self.name, consumer)
        span = self.span
        stack = tracer._stack()
        stack.append(span)
        start = tracer.clock()
        try:
            item = next(self.inner)
        finally:
            stack.pop()
            end = tracer.clock()
            span.busy += end - start
            span.end = end
            if consumer is not None:
                consumer.child += end - start
        span.count += 1
        return item


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr``, remembering the raw original."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _MISSING)
        else:
            original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_MISSING = object()
