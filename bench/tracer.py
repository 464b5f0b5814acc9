"""In-memory spans and counters, recorded from outside the program by
replacing the names it calls through, and the self-time arithmetic over
them."""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    report: int  # spans of one sample share this id


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.report = 0
        self._open: list[int] = []

    def span(self, name: str, fn):
        """``fn`` wrapped to record one span per call."""
        clock, spans, open_ = self.clock, self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, open_[-1] if open_ else -1, self.report)
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()

        return traced

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls, for helpers too hot to time."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span counting its duration minus the
    part of it that its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for span, child in zip(spans, covered):
        totals[span.name] += span.end - span.start - child
    return dict(totals)


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.end - span.start
    return dict(totals)


class Patches:
    """Replaced bindings in modules, classes or dicts, undone by
    ``restore`` in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
