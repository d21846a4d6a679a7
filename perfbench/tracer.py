"""In-memory spans recorded around calls into the e8lie layers.

A span is (name, start, end, parent).  Spans are kept in a list and written
out once, when the process ends.  `instrument` replaces an attribute (module
function, class method or classmethod) with a wrapper that records a span
around each call; nothing under `src/` changes.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._paused = False

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside run the wrapped functions without spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def instrument(self, owner, attr: str, name) -> None:
        """`name` is the span name, or a function of (args, kwargs) giving it."""
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self._paused:
                return orig(*args, **kwargs)
            with self.span(name(args, kwargs) if callable(name) else name):
                return orig(*args, **kwargs)

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one parent run one after another (one thread), so their
    intervals do not overlap and their durations add.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total seconds, self seconds, median call."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s, o in zip(spans, own):
        d = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        d["calls"] += 1
        d["total_s"] += s["end"] - s["start"]
        d["self_s"] += o
        d["durations"].append(s["end"] - s["start"])
    for d in out.values():
        d["median_s"] = statistics.median(d.pop("durations"))
    return out
