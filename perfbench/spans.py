"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: name, start, end, parent span, thread and
operation id.  Spans are kept in memory and written out only when the run
ends.  Recording is thread-safe because ``experiments.run_table1`` calls the
layers from pool threads.  A span opened on a thread that has no open span of
its own (a pool worker) takes the current operation's root span as parent,
so the root's children may run on several threads and overlap in time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._op = 0
        self._root: int | None = None

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; yields the open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        span = Span(self._new_id(), name, 0.0, 0.0, parent,
                    threading.get_ident(), self._op)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def operation(self, name: str):
        """Open the root span of one benchmark operation with a fresh id."""
        with self._lock:
            self._op += 1
        with self.span(name) as root:
            self._root = root.id
            try:
                yield root
            finally:
                self._root = None

    def adopt(self, spans: list[Span], parent: int) -> None:
        """Add spans recorded by a child process under ``parent``.

        Ids are renumbered; spans that had no parent in the child hang
        from ``parent``.  Both processes read the same monotonic clock.
        """
        ids = {s.id: self._new_id() for s in spans}
        adopted = [
            Span(ids[s.id], s.name, s.start, s.end,
                 ids[s.parent] if s.parent is not None else parent,
                 s.thread, self._op, s.work)
            for s in spans
        ]
        with self._lock:
            self.spans.extend(adopted)


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; children on different
    threads may overlap, and the overlap is counted once.
    """
    children = children_of(spans)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if min(c.end, s.end) > max(c.start, s.start)
        ]
        out[s.id] = s.duration - union_length(covered)
    return out


def descendants(span: Span, children: dict[int, list[Span]]) -> list[Span]:
    out, todo = [], [span]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children[s.id])
    return out


def to_json(spans: list[Span]) -> list[dict]:
    return [vars(s) for s in spans]


def from_json(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]
