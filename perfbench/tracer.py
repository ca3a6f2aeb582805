"""In-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function.  Spans are aggregated per
(root, parent, name): root is the outermost open span (a benchmark
phase), parent the innermost open span when the call began.  Each
record holds the call count, the summed duration and the summed self
time, where self time is the duration minus the time covered by the
span's direct children.  Nothing is written while spans are open; the
caller reads ``records`` when the run ends.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list = []     # open frames: [name, root, child_ns]
        self.records: dict = {}   # (root, parent, name) -> [calls, total_ns, self_ns]

    def _close(self, frame, parent, dt):
        if parent is not None:
            parent[2] += dt
        key = (frame[1], parent[0] if parent is not None else None, frame[0])
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[2]

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self._run(name, None, fn, args, kwargs)

    def _run(self, name, rename, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [name, parent[1] if parent is not None else name, 0]
        stack.append(frame)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
            if rename is not None:
                frame[0] = rename(result, args)
            return result
        finally:
            dt = self.clock() - t0
            stack.pop()
            self._close(frame, parent, dt)

    def wrap(self, fn, name, hook=None, rename=None):
        """A drop-in replacement for fn that records a span per call.

        rename(result, args), when given, names the span after the call
        returned (a route taken, say).  hook(result, args), when given,
        runs after the span has closed and only when the call returned.
        """
        run = self._run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = run(name, rename, fn, args, kwargs)
            if hook is not None:
                hook(result, args)
            return result

        return traced

    # -- queries over the aggregated records --------------------------------
    def select(self, name, parent=None):
        """Summed [calls, total_ns, self_ns] of the spans called name."""
        out = [0, 0, 0]
        for (_r, p, n), rec in self.records.items():
            if n == name and (parent is None or p == parent):
                out[0] += rec[0]
                out[1] += rec[1]
                out[2] += rec[2]
        return out

    def calls(self, name, parent=None) -> int:
        return self.select(name, parent)[0]

    def self_s(self, name) -> float:
        return self.select(name)[2] / 1e9

    def layer_self_s(self, prefix, root=None) -> float:
        """Self time of every span whose name starts with prefix."""
        total = 0
        for (r, _p, n), rec in self.records.items():
            if n.startswith(prefix) and (root is None or r == root):
                total += rec[2]
        return total / 1e9


class Patcher:
    """setattr with undo, for wrapping names where the program looks them up."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
