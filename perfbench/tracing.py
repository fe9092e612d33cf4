"""In-memory spans around the benchmark's calls into each fuzzyrel layer.

A span records its name, start and end (``perf_counter_ns``), the span
that was open when it began, and the request it belongs to.  Spans stay
in memory until the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.  A span may carry counts
(rows in, rows out, ...) and a ``calls`` count when it wraps a batch of
calls, so per-call figures divide by calls rather than by spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._request = 0

    def next_request(self) -> None:
        """Start a new request: later top-level spans share a fresh id."""
        self._request += 1

    @contextmanager
    def span(self, name: str, **counts):
        """Time the body; yields the span's count dict for the caller to fill."""
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "request": self._request,
            "name": name,
            "start": 0,
            "end": 0,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total self time (ns) and summed counts."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s["name"], {"spans": 0, "calls": 0, "self_ns": 0, "counts": {}})
            agg["spans"] += 1
            agg["calls"] += s["counts"].get("calls", 1)
            agg["self_ns"] += s["end"] - s["start"] - child_ns.get(s["id"], 0)
            for key, value in s["counts"].items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out

    def write(self, path: Path, metrics: dict) -> None:
        """Write every span plus the derived per-layer metrics as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"metrics": metrics, "spans": self.spans}), encoding="utf-8")
