"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own code around calls into the
compiler's public entry points: ``run_pipeline_method`` is a compile's
parent span, each HTTP request gets its own span, and every pipeline pass's
``run`` becomes a child span while :func:`traced_passes` is active.  Pass spans are named by the pass's
``name`` attribute, never its class, so a pass that a later refactor merges
or renames shows up as an absent layer instead of breaking the run.

Spans stay in memory and are written out once, as Chrome trace-event JSON
(:func:`write_chrome_trace`), which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

#: Span name -> layer (module) name.  A layer's busy time is reported as
#: ``<layer>.busy_s``.  Pass names come from the pipeline's passes; the
#: service's per-stage timings use the same names, and ``qasm.loads`` is the
#: service workload's in-process replay of the daemon's QASM parsing.
SPAN_LAYERS = {
    "qasm.loads": "circuits.qasm",
    "profile": "circuits.profile",
    "build_chip": "chip.build",
    "init_cut_types": "core.cut_types",
    "initial_mapping": "partition.placement",
    "bandwidth_adjust": "core.mapping.bandwidth",
    "select_scheduler": "core.metrics.select",
    "schedule": "core.scheduler",
    "run_pipeline_method": "pipeline",
    "http.compile": "service.http",
}

@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """The span's duration."""
        return self.end - self.start


class Tracer:
    """Collects nested spans in memory (single-threaded by design)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **args):
        """Time the ``with`` body as a span, child of the innermost open span."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, args))


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    def span(self, name: str, **args):
        """A context manager that records nothing."""
        return nullcontext()


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


@contextmanager
def traced_passes(tracer: Tracer):
    """Make every pipeline pass's ``run`` a span named by the pass, while active.

    Wraps ``run`` on each :class:`~repro.pipeline.framework.Pass` subclass
    that defines one and restores the originals on exit.
    """
    from repro.pipeline.framework import Pass

    patched = []
    for cls in _subclasses(Pass):
        original = cls.__dict__.get("run")
        if original is None:
            continue

        def run(self, ctx, _original=original):
            with tracer.span(self.name):
                return _original(self, ctx)

        patched.append((cls, original))
        cls.run = run
    try:
        yield
    finally:
        for cls, original in patched:
            cls.run = original


def busy_and_self(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: total busy seconds and self seconds (busy minus children)."""
    child_seconds: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        busy[span.name] += span.seconds
        own[span.name] += span.seconds - child_seconds[span.id]
    return dict(busy), dict(own)


def write_chrome_trace(path: Path, spans: list[Span], metadata: dict) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete ``X`` events)."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.seconds * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"id": s.id, "parent": s.parent, **s.args},
        }
        for s in sorted(spans, key=lambda s: (s.start, -s.end))
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata})
    )
