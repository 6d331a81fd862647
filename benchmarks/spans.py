"""In-memory spans and call tallies recorded around library calls.

A span covers one call into a layer: name, start, end, parent span and the
workload/instance context. Calls too frequent to keep one record each (the
geometric tests, classifier queries) are tallied on the enclosing span
instead: call count, rows and seconds. A span's self time is its duration
minus its child spans and tallies. The layer of a span or tally is the part
of its name before the first dot.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    child_s: float = 0.0
    context: dict = field(default_factory=dict)
    tallies: dict = field(default_factory=dict)  # name -> [calls, rows, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, **self.context,
                "tallies": self.tallies}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.context: dict = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, None if parent is None else parent.id,
                   time.perf_counter(), context=dict(self.context))
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += rec.duration

    def tally(self, name: str, rows: int, seconds: float) -> None:
        if not self._stack:
            return
        top = self._stack[-1]
        entry = top.tallies.setdefault(name, [0, 0, 0.0])
        entry[0] += 1
        entry[1] += rows
        entry[2] += seconds
        top.child_s += seconds

    def spanned(self, name_of, fn):
        """``fn`` wrapped so that each call opens a span named ``name_of(*args)``."""
        def wrapper(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                return fn(*args, **kwargs)
        return wrapper

    def tallied(self, name: str, rows_of, fn):
        """``fn`` wrapped so that each call is tallied on the enclosing span."""
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.tally(name, rows_of(*args, **kwargs), time.perf_counter() - t0)
        return wrapper

    def subtree(self, root: Span) -> list[Span]:
        """``root`` and every span opened below it (spans are in start order)."""
        members = {root.id}
        out = [root]
        for rec in self.spans[root.id + 1:]:
            if rec.start > root.end:
                break
            if rec.parent in members:
                members.add(rec.id)
                out.append(rec)
        return out


def summarize(spans: list[Span]) -> dict:
    """Inclusive seconds and call count per span name, tallies per tally
    name, and self seconds per layer, over the given spans."""
    by_name: dict[str, list] = {}
    tallies: dict[str, list] = {}
    self_s: dict[str, float] = {}
    for rec in spans:
        entry = by_name.setdefault(rec.name, [0, 0.0])
        entry[0] += 1
        entry[1] += rec.duration
        layer = layer_of(rec.name)
        self_s[layer] = self_s.get(layer, 0.0) + rec.self_s
        for name, (calls, rows, seconds) in rec.tallies.items():
            t = tallies.setdefault(name, [0, 0, 0.0])
            t[0] += calls
            t[1] += rows
            t[2] += seconds
            self_s[layer_of(name)] = self_s.get(layer_of(name), 0.0) + seconds
    return {"spans": by_name, "tallies": tallies, "self_s": self_s}
