"""In-memory span recorder for the benchmark's traced mode.

A span is recorded around each call the benchmark makes into a layer of
the package: its name (``<layer>:<call>``), start, end, parent span and
the op id of the benchmark operation that caused it. Spans stay in a list
and are written once, when the run ends. With tracing off, ``span`` hands
back one shared no-op context manager, so untraced runs pay one method
call per boundary.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_OFF = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._stack: list[int] = []
        self.op_id = 0

    def next_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def span(self, name: str):
        return self._span(name) if self.enabled else _OFF

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op_id)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span. Spans nest
        strictly (one client thread), so a span's children never
        overlap and their durations can simply be summed."""
        child = defaultdict(float)
        for _, _, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, float] = defaultdict(float)
        for sid, name, s, e, _, _ in self.spans:
            out[name.split(":", 1)[0]] += (e - s) - child[sid]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([{"id": sid, "name": n, "start": s, "end": e,
                        "parent": p, "op": op}
                       for sid, n, s, e, p, op in self.spans], f)
