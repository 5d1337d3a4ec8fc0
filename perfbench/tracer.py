"""In-memory span and counter recorder that wraps functions by module attribute.

A wrapped name is replaced in its module's namespace, so only calls that look
the name up there are seen. Each layer function is therefore wrapped at every
module that imports it (its call-site name, e.g. `cli.run_window` and
`protocol.run_window`), and every span records both that site and the function
it runs. `restore()` puts every original back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    """Spans are `[id, parent_id, site, fn, start_s, end_s]` lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, module, attr: str, fn: str, on_return=None) -> None:
        """Record a span per call of `module.attr`, counted as `fn.calls`.

        `on_return(args, kwargs, result)` may return extra counter increments.
        """
        original = getattr(module, attr)
        site = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack, counts, clock = (self.spans, self._stack, self.counts,
                                       self.clock)

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, site, fn,
                    clock(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = original(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            counts[f"{fn}.calls"] += 1
            if on_return is not None:
                counts.update(on_return(args, kwargs, result))
            return result

        self._replace(module, attr, original, traced)

    def count(self, module, attr: str, fn: str) -> None:
        """Count calls of `module.attr` as `fn.calls`, without a span; for
        leaf functions called too often for a span each."""
        original = getattr(module, attr)
        counts, key = self.counts, f"{fn}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._replace(module, attr, original, counted)

    def _replace(self, module, attr, original, wrapper) -> None:
        wrapper.__wrapped__ = original
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _site, _fn, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(start, end, children[sid])
            for sid, _parent, _site, _fn, start, end in spans}


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per function: total inclusive seconds `s` and total `self_s`."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0})
    for sid, _parent, _site, fn, start, end in spans:
        out[fn]["s"] += end - start
        out[fn]["self_s"] += selfs[sid]
    return dict(out)
