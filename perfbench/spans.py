"""In-memory span tracer that wraps module attributes from outside the package.

A span records name, start, end, parent span and op id. Wrapping happens at
the attribute the caller looks up (for example `sketchlsq.solver.apply_rht`,
not `sketchlsq.hadamard.apply_rht`), so the package source stays untouched
and only calls made through that name are traced. Self time of a span is its
duration minus the time its child spans cover; calls are single-threaded,
so children never overlap and that is the sum of their durations.
"""

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    # Small facts captured at the boundary (shapes, counts), never arrays of
    # the input's size, so holding every span costs little memory.
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap, the span name to record for it, and an
    optional `capture(args, kwargs, result) -> dict` for its span's info."""

    module: object
    attr: str
    name: str
    capture: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span "op" around one timed call of the public API."""
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str, capture: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if capture is not None:
                self.spans[idx].info = capture(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Replace every target attribute by its traced wrapper; restore the
        original objects on exit, also when the body raises."""
        saved = []
        try:
            for t in targets:
                original = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self.wrap(original, t.name, t.capture))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def by_op(self) -> dict[int, list[tuple[int, Span, float]]]:
        """(index, span, self time) triples grouped by op id."""
        grouped: dict[int, list[tuple[int, Span, float]]] = {}
        for idx, (s, own) in enumerate(zip(self.spans, self.self_times())):
            grouped.setdefault(s.op, []).append((idx, s, own))
        return grouped

    def write(self, path):
        """Write every span as one JSON object per line; captured index
        arrays are written as their length."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {**vars(s), "info": {k: v if isinstance(v, (int, float)) else len(v)
                                              for k, v in s.info.items()}}
                fh.write(json.dumps(record) + "\n")
