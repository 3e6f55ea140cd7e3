"""Spans and counts recorded at layer boundaries, from benchmark code.

A span is one call into a layer's public function: its name (the layer
is the part before the first dot), start, end, the span that caused it
and the id of the job it belongs to.  Spans stay in memory and are
written out when the benchmark ends.  A disabled tracer records nothing
and hands out one shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    parent: Optional[int]
    job: Optional[str]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """The layer the span's function belongs to."""
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        """Wall time of the call."""
        return self.end - self.start


class _Open:
    """Context manager that closes one span on exit."""

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> Span:
        local = self.tracer._local
        stack = local.__dict__.setdefault("stack", [])
        self.span = Span(
            id=next(self.tracer._ids),
            parent=stack[-1].id if stack else None,
            job=getattr(local, "job", None),
            name=self.name,
            start=time.perf_counter(),
            attrs=self.attrs,
        )
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._local.stack.pop()
        with self.tracer._lock:
            self.tracer.spans.append(self.span)


class Tracer:
    """Records spans and counts when enabled; costs one branch when not."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, **attrs: Any):
        """Context manager timing one call into layer ``name``."""
        if not self.enabled:
            return _NULL
        return _Open(self, name, attrs)

    @contextlib.contextmanager
    def job(self, job_id: str):
        """Attribute the spans opened inside to ``job_id``."""
        if not self.enabled:
            yield
            return
        self._local.job = job_id
        try:
            with self.span("job", id=job_id):
                yield
        finally:
            self._local.job = None

    def count(self, name: str, value: float) -> None:
        """Record one observation of counter ``name``."""
        if self.enabled:
            with self._lock:
                self.counts[name].append(value)

    def durations(self, name: str) -> List[float]:
        """Wall times of every span called ``name``."""
        return [span.seconds for span in self.spans if span.name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: span time not covered by the span's children."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.seconds
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.layer] += span.seconds - children[span.id]
        return dict(totals)

    def write(self, path: str) -> None:
        """Write spans and counts as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span), default=str) + "\n")
            for name, values in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "values": values})
                             + "\n")
