"""In-memory spans, self time and percentile summaries for the traced run.

A span has a name, start and end (``perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so comparable across the pool's worker
processes), the index of its parent span and the frame it belongs to.
Spans stay in memory and are written once, at the end of a run.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]  # index into the owning tracer's span list
    frame: Optional[int]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, frame: Optional[int] = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, frame))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def adopt(self, spans: Sequence[Span]) -> None:
        """Append spans recorded by another tracer (a pool worker's), hanging
        its root spans under the currently open span."""
        offset = len(self.spans)
        parent = self._open[-1] if self._open else None
        for s in spans:
            self.spans.append(
                Span(s.name, s.start_ns, s.end_ns, parent if s.parent is None else s.parent + offset, s.frame)
            )

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def self_times_ns(spans: Sequence[Span]) -> list[int]:
    """Per span: its duration minus the part of its interval that its child
    spans cover. Children of one parent may overlap (pool workers), so the
    covered part is the length of the union of their clipped intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start_ns
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration_ns - covered)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timing_summary(name: str, values_ms: Sequence[float]) -> dict[str, tuple[float, str]]:
    """``<name>.p50``, ``<name>.p95`` (ms) and ``<name>.n`` (sample count)."""
    return {
        f"{name}.p50": (percentile(values_ms, 50), "ms"),
        f"{name}.p95": (percentile(values_ms, 95), "ms"),
        f"{name}.n": (len(values_ms), "count"),
    }
