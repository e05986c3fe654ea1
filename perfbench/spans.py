"""In-memory span recorder that wraps module-level functions from outside.

A traced function is replaced, at the module attribute its callers look
up, by a wrapper that records a span (name, parent span name, round,
start, end) around the real call. The real code runs unchanged, so a
traced run computes bit for bit what an untraced run computes.

Every call's duration is kept per (name, parent) in a compact float
array, so totals, self time and medians cover all calls even where a
function runs hundreds of thousands of times. Full span records are kept
only for the first ``SPAN_CAP`` calls of each (name, parent) pair and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter

SPAN_CAP = 2000


class Tracer:
    def __init__(self) -> None:
        self.round = -1  # round index stamped on each span; -1 is set-up
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._durations: dict[tuple[str, str | None], array] = {}
        self._self_s: dict[tuple[str, str | None], float] = {}
        self.spans: list[tuple[str, str | None, int, float, float]] = []
        self.spans_dropped = 0

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by a recording wrapper until ``restore``.

        ``on_result(parent, result)`` is called with the enclosing span's
        name and the returned value, for counts read off return values.
        """
        original = getattr(module, attr)
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                self._record(name, parent[0] if parent else None, t0, t1, frame[1])
            if on_result is not None:
                on_result(parent[0] if parent else None, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _record(self, name, parent, t0, t1, child_s) -> None:
        key = (name, parent)
        durations = self._durations.get(key)
        if durations is None:
            durations = self._durations[key] = array("d")
            self._self_s[key] = 0.0
        durations.append(t1 - t0)
        self._self_s[key] += (t1 - t0) - child_s
        if len(durations) <= SPAN_CAP:
            self.spans.append((name, parent, self.round, t0, t1))
        else:
            self.spans_dropped += 1

    def _keys(self, name: str, parent):
        """Keys of ``name`` whose parent matches: None matches any parent, a
        string ending in '.' matches a module prefix, else an exact name."""
        for key in self._durations:
            if key[0] != name:
                continue
            p = key[1]
            if parent is None or p == parent or (
                    parent.endswith(".") and p is not None and p.startswith(parent)):
                yield key

    def count(self, name: str, parent=None) -> int:
        return sum(len(self._durations[k]) for k in self._keys(name, parent))

    def total_ms(self, name: str, parent=None) -> float:
        return 1e3 * sum(sum(self._durations[k]) for k in self._keys(name, parent))

    def self_ms(self, name: str, parent=None) -> float:
        return 1e3 * sum(self._self_s[k] for k in self._keys(name, parent))

    def median_ms(self, name: str, parent=None) -> float:
        values = [d for k in self._keys(name, parent) for d in self._durations[k]]
        return 1e3 * statistics.median(values) if values else 0.0

    def summary(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "count": len(d),
             "total_ms": 1e3 * sum(d), "self_ms": 1e3 * self._self_s[(name, parent)]}
            for (name, parent), d in sorted(self._durations.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        ]
