"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each call into a buffon
module: a span opens before the call and closes after it, and nests under
whichever span was open when it started.  Calls too frequent for a span
each, such as one geometry call per lattice point, are aggregated into a
counter of calls and nanoseconds instead.  Nothing is written until the run
ends and asks for ``to_json``.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the enclosing span, or None."""

    id: int
    trace: int  # id of the outermost span of the same request
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans and call counters in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, list[int]] = {}  # name -> [calls, ns]
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = Span(
            id=len(self.spans),
            trace=parent.trace if parent else len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            start_ns=time.perf_counter_ns(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def traced(self, name: str, fn):
        """``fn`` wrapped so each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so each call adds to the counter ``name``, without a span."""
        counter = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += time.perf_counter_ns() - start

        return wrapper

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_ns(self, span: Span) -> int:
        """The span's duration minus the time its direct children cover."""
        return span.ns - sum(child.ns for child in self.children(span))

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counters": {k: {"calls": c, "ns": ns} for k, (c, ns) in self.counters.items()},
        }


class TimedRng:
    """A Generator stand-in that records a span around every ``random(size)`` draw.

    The span carries the number of uniforms drawn, so the draw request sizes
    (and through them the kernel's block size) are observed, not assumed.
    """

    def __init__(self, rng, tracer: Tracer) -> None:
        self._rng = rng
        self._tracer = tracer

    def random(self, size=None):
        with self._tracer.span("sampling.random", uniforms=size):
            return self._rng.random(size)
