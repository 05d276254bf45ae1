"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` replaces public functions of ``flowqubo`` modules, and the
names other modules imported them under, with wrappers that record one span
per call: its name, parent span, wall and process-CPU start and end, and
counts taken from the call's arguments and result.  The replacements hold
only inside :meth:`Tracer.installed`, so untraced rounds run the program as
shipped.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover;
calls on one thread nest, so that is the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.round = 0

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict takes counts under "counts"."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
            "name": name,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        record["cpu_start"] = time.process_time()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu_end"] = time.process_time()
            self._stack.pop()

    def wrap(self, name, fn, counts=None):
        """``fn`` with a span around each call.

        ``name`` is a string or a function of the call's arguments; ``counts``
        maps ``(args, kwargs, result)`` to a dict of counts for the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record["counts"].update(counts(args, kwargs, result))
                return result

        return traced

    # -- rebinding -------------------------------------------------------------

    def patch(self, owner, attr: str, name, counts=None) -> None:
        """Register ``owner.attr`` for replacement while installed."""
        self._patches.append((owner, attr, self.wrap(name, getattr(owner, attr), counts)))

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        try:
            for owner, attr, traced in self._patches:
                setattr(owner, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> list[dict]:
        """Spans with "wall_s"/"cpu_s" (duration) and "self_wall_s"/"self_cpu_s"."""
        child_wall = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_wall[s["parent"]] += s["end"] - s["start"]
                child_cpu[s["parent"]] += s["cpu_end"] - s["cpu_start"]
        out = []
        for s, cw, cc in zip(self.spans, child_wall, child_cpu):
            wall = s["end"] - s["start"]
            cpu = s["cpu_end"] - s["cpu_start"]
            out.append({**s, "wall_s": wall, "cpu_s": cpu,
                        "self_wall_s": wall - cw, "self_cpu_s": cpu - cc})
        return out
