"""In-memory spans around the public functions of each layer.

The traced run patches module and class attributes of ``repro`` for the
duration of one ``with patched(...)`` block, so no file under ``src/``
changes. Each span records a name, a start, an end, its parent and the
serve step it belongs to; the spans stay in memory and are reduced to
per-layer numbers when the run ends.

Parents come from a per-thread stack. A span opened on a thread with an
empty stack (a router dispatch-pool thread, say) takes as parent the
innermost span still open on any thread for the same step, so the
router's fan-out calls hang under the router method that caused them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    step: "int | None"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; see the module doc."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.counts: "Counter[str]" = Counter()
        #: Set by the client before each serve step; spans opened while
        #: it is set carry it.
        self.step: "int | None" = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: "list[tuple[int, int | None]]" = []

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        step = self.step
        with self._lock:
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            if parent is None:
                for open_id, open_step in reversed(self._open):
                    if open_step == step:
                        parent = open_id
                        break
            self._open.append((span_id, step))
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open.remove((span_id, step))
                self.spans.append(Span(span_id, name, start, end, parent, step))

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args: object, **kwargs: object) -> object:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` counted under ``name``, without a span (for hot calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args: object, **kwargs: object) -> object:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    # ------------------------------------------------------------------

    def self_times(self) -> "dict[int, float]":
        """Span id -> duration minus the part its children cover."""
        children: "dict[int, list[Span]]" = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[span.span_id] = span.duration - covered
        return result

    def summary(self) -> "dict[str, dict[str, float]]":
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        own = self.self_times()
        table: "dict[str, dict[str, float]]" = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            entry = table[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += own[span.span_id]
        return dict(table)


@contextlib.contextmanager
def patched(targets: "list[tuple[object, str, Callable[[Callable], Callable]]]") -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for each target, and
    put every original back on exit (deleting what was only inherited)."""
    saved = []
    try:
        for owner, attr, make in targets:
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            saved.append((owner, attr, had_own, original))
        yield
    finally:
        for owner, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
