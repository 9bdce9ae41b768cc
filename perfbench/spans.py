"""In-memory span recorder for the benchmark's calls into arrangerank.

A span is (name, start, end, parent, request): ``parent`` is the index of the
enclosing open span (-1 for a root) and ``request`` the identifier shared by
every span of one request or pass. Spans stay in memory and are written once,
when the run ends. With recording off, ``span`` hands back one shared no-op
context manager, so the untraced runs pay a method call per boundary and
nothing else.
"""
from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter

_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "SpanRecorder", name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        rec = self.rec
        parent = rec._open[-1] if rec._open else -1
        self.index = len(rec.spans)
        rec.spans.append([self.name, perf_counter(), 0.0, parent, rec.request])
        rec._open.append(self.index)
        return self

    def __exit__(self, *exc):
        self.rec.spans[self.index][2] = perf_counter()
        self.rec._open.pop()
        return False


class SpanRecorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.request = ""
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def durations(self, name: str, request_prefix: str = "") -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and s[4].startswith(request_prefix)]

    def median(self, name: str, request_prefix: str = "") -> float:
        durs = self.durations(name, request_prefix)
        if not durs:
            raise KeyError(f"no span named {name!r} under request {request_prefix!r}")
        return statistics.median(durs)

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds (duration minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[k]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
