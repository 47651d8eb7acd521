"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the engine: the benchmark times its own
calls into each layer with `Tracer.span`, and `Tracer.installed` swaps
timed wrappers into a module for the names it imported, restoring the
originals on exit.  No source file of the engine changes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Span:
    """One timed call: name, start/end in perf_counter seconds, the index of
    the enclosing span (-1 at top level), the frame it belongs to (-1 for
    set-up work) and the bytes of its array arguments and results."""

    __slots__ = ("name", "start", "end", "parent", "frame", "nbytes")

    def __init__(self, name: str, parent: int, frame: int):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.frame = frame
        self.nbytes = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _nbytes(values) -> int:
    """Bytes of every array among `values`, looking inside tuples (pooling
    results) and dataclasses (batch-norm parameters)."""
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _nbytes(v)
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            total += _nbytes(getattr(v, f.name) for f in dataclasses.fields(v))
    return total


class Tracer:
    """Collects spans in memory; `frame` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.frame = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        s = Span(name, self._open[-1] if self._open else -1, self.frame)
        self.spans.append(s)
        self._open.append(idx)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count_bytes: bool):
        """`fn` timed as span `name`.  The span stays open only around the call
        itself, so byte counting lands in the caller's self time; span() is
        inlined because this runs for every kernel call of a traced frame."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            s = Span(name, open_[-1] if open_ else -1, self.frame)
            open_.append(len(spans))
            spans.append(s)
            s.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                open_.pop()
            if count_bytes:
                s.nbytes = _nbytes(args) + _nbytes(kwargs.values()) + _nbytes((out,))
            return out
        return timed

    @contextmanager
    def installed(self, module, names: dict[str, str], count_bytes: frozenset[str]):
        """Replace `module.<attr>` by a timed wrapper recording span `name`
        for each attr -> name in `names`; the originals come back on exit."""
        saved = {attr: getattr(module, attr) for attr in names}
        try:
            for attr, name in names.items():
                setattr(module, attr,
                        self.wrap(name, saved[attr], attr in count_bytes))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def by_parent(self) -> dict[int, list[Span]]:
        """Map span index -> its direct children, in start order."""
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.parent, []).append(s)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON record per line."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "frame": s.frame, "bytes": s.nbytes}) + "\n")
