"""Per-layer tracing from outside the program.

The benchmark replaces the public functions of each package module by timing
wrappers inside the child process; the package itself is not modified.  A
call recorded as a *span* keeps its name, start, end and parent span.  The
hot functions (about a million polynomial products per run) are aggregated
into per-name and per-parent-span counters instead, so memory stays bounded.

Self time is a call's duration minus the time covered by the wrapped calls
nested directly inside it.  The interpreter runs one call at a time, so
nested calls never overlap and their coverage is the sum of their durations.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.clear()

    def clear(self) -> None:
        self.stack: list[list] = []     # open calls: [name, group, start, covered, span]
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.parent_self_s: dict[tuple[str, str], float] = defaultdict(float)
        # inclusive time of the outermost call of each group (recursion and
        # calls nested under another member of the group are not re-counted)
        self.group_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._open_spans: list[int] = []

    def wrap(self, fn, name: str, group: str | None = None, span: bool = False):
        """Return ``fn`` timed under ``name``; ``span`` records every call."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if group is not None:
                tracer._depth[group] += 1
            span_id = -1
            if span:
                span_id = len(tracer.spans)
                tracer.spans.append({
                    "name": name, "start": 0.0, "end": 0.0,
                    "parent": tracer._open_spans[-1] if tracer._open_spans else None})
                tracer._open_spans.append(span_id)
            frame = [name, group, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, end)

        return traced

    def _close(self, frame, end) -> None:
        name, group, start, covered, span_id = frame
        dur = end - start
        own = dur - covered
        if self.stack:
            self.stack[-1][3] += dur
        self.calls[name] += 1
        self.self_s[name] += own
        if group is not None:
            self._depth[group] -= 1
            if self._depth[group] == 0:
                self.group_s[group] += dur
        if span_id >= 0:
            self._open_spans.pop()
            rec = self.spans[span_id]
            rec["start"], rec["end"] = start, end
        parent = self.spans[self._open_spans[-1]]["name"] if self._open_spans else "-"
        self.parent_self_s[(name, parent)] += own

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def span_time(self, name: str, parent: str | None = None) -> float:
        """Total duration of the spans called ``name`` (under ``parent``)."""
        total = 0.0
        for rec in self.spans:
            if rec["name"] != name:
                continue
            if parent is not None:
                if rec["parent"] is None or self.spans[rec["parent"]]["name"] != parent:
                    continue
            total += rec["end"] - rec["start"]
        return total
