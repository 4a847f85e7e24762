"""In-memory spans recorded around the benchmark's calls into each layer.

A span is a name such as ``generators.gen_planted_scenario.quantum``, whose
first dotted part is the layer (the ``aumann`` module it calls into), a start
and an end in ``perf_counter_ns`` units, the index of its parent span and
the id of the round it belongs to. Spans stay in memory until the run ends;
``Tracer.dump`` writes them out then.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, _now(), 0, t._stack[-1] if t._stack else -1, t.round_id])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][2] = _now()
        t._stack.pop()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans when ``enabled``; otherwise ``span`` costs one call."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.round_id = -1
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def durations(self, rounds: set[int]) -> dict[str, list[float]]:
        """Seconds per span name over the spans of ``rounds``."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, rid in self.spans:
            if rid in rounds:
                out[name].append((end - start) / 1e9)
        return out

    def self_seconds_by_layer(self, rounds: set[int]) -> dict[str, float]:
        """Per layer: span time minus the time its direct children cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, rid in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, rid) in enumerate(self.spans):
            if rid in rounds:
                out[name.split(".", 1)[0]] += (end - start - child_ns[k]) / 1e9
        return out

    def dump(self, path: Path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "round"]
        doc["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
