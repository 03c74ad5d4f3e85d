"""In-memory span recorder and call counters for the traced replay.

Spans (name, start, end, parent) are recorded around each call the replay
makes into a pdikit module. Hot per-call boundaries (``log_joint`` and
``pointwise_row``, tens of thousands of calls) are recorded as a count and a
summed duration instead of one span per call, which keeps the tracing cost
per call to two ``perf_counter`` reads.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.calls: dict[str, int] = {}
        self.call_s: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def counted(self, key: str, fn):
        """Wrap ``fn``: each call adds 1 to ``calls[key]`` and its time to ``call_s[key]``."""
        self.calls.setdefault(key, 0)
        self.call_s.setdefault(key, 0.0)
        calls, call_s = self.calls, self.call_s

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                call_s[key] += perf_counter() - t0
                calls[key] += 1

        return wrapper

    def traced(self, name: str, fn):
        """Wrap ``fn`` so each call is recorded as a span called ``name``."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def duration(self, name: str) -> float:
        """Summed duration of every span called ``name``; 0 when none ran."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus the time their child spans cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(
            s[2] - s[1] for s in self.spans if s[3] in own and s[0] != name
        )
        return self.duration(name) - children

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [
                {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                for n, s, e, p in self.spans
            ],
            "calls": self.calls,
            "call_s": self.call_s,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)


class NullTracer:
    """Tracer stand-in for untraced replays: spans cost nothing, calls are not wrapped."""

    @contextmanager
    def span(self, name: str):
        yield

    def counted(self, key: str, fn):
        return fn


def instrument(model, tracer, prefix: str):
    """Copy of a pdikit ``ModelSpec`` whose ``log_joint`` and ``pointwise_row`` are counted.

    Uses only the public dataclass fields, so nothing under ``src/`` changes.
    The copy's own closures still call the original functions, so a
    ``log_joint`` that evaluates the likelihood internally is counted once.
    """
    return dataclasses.replace(
        model,
        log_joint=tracer.counted(f"{prefix}.log_joint", model.log_joint),
        pointwise_row=tracer.counted(f"{prefix}.pointwise_row", model.pointwise_row),
    )
