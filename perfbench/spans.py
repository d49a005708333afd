"""In-memory spans for the traced benchmark run.

A span is (id, parent id, name, start ns, end ns); every span of one traced
process shares the tracer's run id. Spans stay in memory and are written once,
when the run ends. A layer's self time is its span durations minus the part of
each interval that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans; ``span`` nests, ``add`` records a span timed by the caller."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self._stack: list[int] = []

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        self.spans.append((span_id, self.current, name, time.perf_counter_ns(), 0))
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            sid, parent, nm, start, _ = self.spans[span_id]
            self.spans[span_id] = (sid, parent, nm, start, time.perf_counter_ns())

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        self.spans.append((len(self.spans), self.current, name, start_ns, end_ns))

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) / 1000.0 for _, _, nm, start, end in self.spans if nm == name]

    def self_times_ms(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for sid, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child_ns[sid]) / 1e6
        return out

    def write(self, path: Path) -> None:
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, ``q`` in (0, 100]; None for no values."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
