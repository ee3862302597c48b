"""In-memory spans around the benchmark's calls into twtl.

A span records its name, start, end, parent span and operation id. The
layer of a span is its name up to the first dot, so ``semantics.rho`` is
in layer ``semantics``. Spans are kept in a list and written out once,
when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        """Time the body as a child of the innermost open span; yields the span id."""
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        try:
            yield sid
        finally:
            self.ends[sid] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def under(self, sid: int):
        """Make spans opened in the body children of the closed span `sid`.

        Used to attach a replay of a command's public calls to the span
        that timed the command itself.
        """
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children, in seconds."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[sid] - self.starts[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in zip(range(len(self.names)), self.names, self.starts, self.ends,
                           self.parents, self.ops):
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"),
                                             rec))) + "\n")


class NoTracer:
    """Stands in for Tracer when tracing is off; records nothing."""

    def span(self, name: str):
        return nullcontext(-1)


NO_TRACER = NoTracer()


def traced(tr, name: str, fn, *args, **kwargs):
    """Call fn inside a span named `name`."""
    with tr.span(name):
        return fn(*args, **kwargs)
