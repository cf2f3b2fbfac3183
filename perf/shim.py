"""Span recorder: times calls into each module's public functions from outside.

The benchmark may not edit ``src/``, so layer boundaries are observed by
swapping class attributes for timing wrappers while a traced pass runs and
putting the originals back afterwards.  A span is ``(name, start, end,
parent, tick)``: ``parent`` is the index of the span that was open when this
one started (-1 at the root) and ``tick`` is whatever the driver last wrote
to :attr:`SpanRecorder.tick` (the serving tick index).  Spans stay in memory;
:meth:`SpanRecorder.summary` derives each name's call count, inclusive time
and *self* time (duration minus the part covered by child spans).

Never installed during the end-to-end passes: the wrappers cost about a
microsecond per call, which is what ``trace.overhead_share`` reports.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["SpanRecorder", "Target", "installed"]

_MISSING = object()

#: ``count(counters, args, result)`` adds work counts (rows, tokens, FLOPs)
#: for one call; ``args`` includes ``self``.
CountFn = Callable[[Dict[str, float], tuple, object], None]


class Target(NamedTuple):
    """One class attribute to wrap and the span name its calls record."""

    cls: type
    attr: str
    span: str
    count: Optional[CountFn] = None


class SpanRecorder:
    """In-memory span list plus work counters filled by the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.counters: Dict[str, float] = {}
        self.tick = -1
        self._stack: List[int] = []

    def wrap(self, fn: Callable, span: str, count: Optional[CountFn]) -> Callable:
        """``fn`` timed as one span per call (closed even when it raises)."""
        spans, stack, counters, clock = (
            self.spans, self._stack, self.counters, time.perf_counter)

        def shim(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, self.tick)
            if count is not None:
                count(counters, args, result)
            return result

        shim.__wrapped__ = fn
        return shim

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        ``total_s`` skips a span nested (at any depth) inside one of the same
        name, so a name that wraps both an outer and an inner call of one
        layer is not counted twice; ``self_s`` needs no such care.
        """
        child_s = [0.0] * len(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        for name, start, end, parent, _tick in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, parent, _tick) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[index]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["total_s"] += end - start
        return out

    def root_total_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(end - start for _n, start, end, parent, _t in self.spans
                   if parent < 0)

    def dump(self, path: str) -> None:
        """Write the raw spans as JSON rows ``[name, start, end, parent, tick]``."""
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "tick"],
                       "spans": self.spans, "counters": self.counters}, handle)


@contextmanager
def installed(recorder: SpanRecorder, targets: Iterable[Target]) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block, then restore.

    Restoration is checked: on exit each class must hold exactly the
    attribute object it held on entry (or none, if it inherited it).
    """
    saved: List[Tuple[type, str, object]] = []
    try:
        for target in targets:
            original = target.cls.__dict__.get(target.attr, _MISSING)
            saved.append((target.cls, target.attr, original))
            fn = getattr(target.cls, target.attr)
            setattr(target.cls, target.attr,
                    recorder.wrap(fn, target.span, target.count))
        yield recorder
    finally:
        for cls, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        for cls, attr, original in saved:
            if cls.__dict__.get(attr, _MISSING) is not original:
                raise AssertionError(f"shim on {cls.__name__}.{attr} was not restored")
