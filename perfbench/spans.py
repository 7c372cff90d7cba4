"""In-memory spans recorded around calls into the program, plus their arithmetic.

The tracer replaces public callables of ``filmline`` modules with wrappers
that open a span on entry and close it on exit. Nothing in the program is
edited: the wrappers are installed on the module or class attribute that
callers look up, and removed again when tracing ends. Spans are kept in a
list and written out once, at the end of a run.

A span is ``(id, name, start, end, parent, op, attrs)``: ``parent`` is the id
of the span that was open when it started (``-1`` at the top level) and
``op`` names the benchmark operation it belongs to. Self time is a span's
duration minus the part of that interval its direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its direct children.

    Child intervals are clipped to the parent's interval before their union
    is taken, so overlapping or overhanging children are never subtracted
    twice or beyond the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None:
            continue
        lo, hi = max(s.start, parent.start), min(s.end, parent.end)
        children.setdefault(parent.id, []).append((lo, hi))
    return {s.id: s.duration - covered_length(children.get(s.id, ())) for s in spans}


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, sample count) for the highest listed percentile
    that leaves at least ten samples beyond it; the median when none does."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q, percentile(values, q), n
    return 50.0, percentile(values, 50.0), n


class Tracer:
    """Records spans around wrapped callables; one tracer per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, int]] = {}  # op -> counter -> value
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.op, attrs or {})
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def count(self, name: str, n: int = 1):
        """Add ``n`` to a counter of the current operation."""
        counters = self.counters.setdefault(self.op, {})
        counters[name] = counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self.counters.get(self.op, {}).get(name, 0)

    # -- instrumentation ---------------------------------------------------
    def wrap(self, owner, attr: str, name: str, describe=None, delta_of: str | None = None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``describe(args, kwargs)`` returns extra attributes stored on the
        span; it runs before the call, so it sees the arguments unchanged.
        With ``delta_of``, the span also stores how much that counter grew
        during the call, under the counter's name.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, describe(args, kwargs) if describe else None)
            before = tracer.counter(delta_of) if delta_of else 0
            try:
                return original(*args, **kwargs)
            finally:
                if delta_of:
                    span.attrs[delta_of] = tracer.counter(delta_of) - before
                tracer.close(span)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str, amount=None):
        """Replace ``owner.attr`` by a wrapper that only adds to a counter:
        one per call, or ``amount(args, kwargs)`` when given."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(counter, amount(args, kwargs) if amount else 1)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every wrapped attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write(self, path: str):
        """One JSON object per span, then one line with the counters."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.op, s.attrs])
                         + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")
