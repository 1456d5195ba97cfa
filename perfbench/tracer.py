"""Span recorder for the traced run, wrapping the program's layers from outside.

Each wrapped callable records a span (name, start, end, parent) in memory;
the spans are written out once, when the traced pass has ended.  A layer's
self time is its span's duration minus the time its child spans cover.
Calls run on one thread, one at a time, so child spans never overlap and
that covered time is the sum of their durations.

The program calls a function through whatever name it looked it up by, so
a function is wrapped at every lookup site: each module global or class
attribute in ``targets``.  ``Recorder.patched`` restores every original on
exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from pathlib import Path

_MISSING = object()


class Recorder:
    """In-memory spans plus counts taken at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # (name index, start, end, parent)
        self.counts: dict[str, float] = defaultdict(int)
        self._name_index: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span `name`; count(counts, args, kwargs, result) runs after it."""
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        key = self._name_index[name]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
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
                spans[index] = (key, start, end, parent)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name, count) target; restore all on exit."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = vars(owner).get(attr, _MISSING)
                if original is _MISSING:
                    raise AttributeError(f"{owner!r} has no attribute {attr!r} to wrap")
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {
            n: {"calls": 0, "self_s": 0.0} for n in self.names
        }
        for i, (key, start, end, _) in enumerate(self.spans):
            t = totals[self.names[key]]
            t["calls"] += 1
            t["self_s"] += end - start - child_time[i]
        return totals

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        p, c = self._name_index.get(parent_name), self._name_index.get(child_name)
        if p is None or c is None:
            return 0
        return sum(
            1 for key, _, _, parent in self.spans if key == c and parent >= 0 and self.spans[parent][0] == p
        )

    def write(self, path: Path) -> None:
        """Write the spans as CSV: name, start, end (seconds since the first span), parent row."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["index,name,start_s,end_s,parent"]
        lines += [
            f"{i},{self.names[key]},{start - t0:.9f},{end - t0:.9f},{parent}"
            for i, (key, start, end, parent) in enumerate(self.spans)
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
