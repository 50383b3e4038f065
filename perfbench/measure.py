"""What a workload hands back to ``run.py``, and the statistics both kinds share.

Timings are reported at a fixed reference speed.  On a shared host the CPU
itself speeds up and slows down with other tenants' load, by up to 1.8x
within seconds, and CPU time slows with it, so raw seconds of the same code
drift between runs by more than any bound a regression check could use.
The benchmark therefore times a fixed piece of pure-Python work, the
*gauge*, just before every compile and request, and scales each timing by
how much slower or faster the gauge ran than its reference time.  The gauge
is the benchmark's own code: a change to the compiler moves the scaled
times, a change in the host's speed does not.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time
from dataclasses import dataclass, field

from tracing import Span

#: Timings are scaled to a host on which one :func:`gauge` run takes this many
#: seconds, so scaled times read as seconds on such a host.
GAUGE_REFERENCE_S = 0.0012

#: How many gauge runs, centred on a timing, estimate the host's speed for it.
#: The host flips between a fast and a slow state many times a second, so a
#: single gauge run says little about the compile next to it; the mean over
#: a window of about a second and a half gives the share of time spent slow.
GAUGE_WINDOW = 31


@dataclass
class Outcome:
    """One workload run: operations attempted, failures, metrics and spans.

    ``metrics`` holds the end-to-end metrics except ``setup_s``, which
    ``run.py`` measures around the workload's set-up.  ``layers`` holds the
    per-layer metrics, ``layer_rows`` the (name, busy s, self s) rows of
    the layer table and ``traced_suite_s`` the median traced ``suite_s``; all
    three are filled by traced runs only.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    layer_rows: list[tuple[str, float, float]] = field(default_factory=list)
    traced_suite_s: float = 0.0
    spans: list[Span] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def gauge(size: int = 24) -> float:
    """Seconds one run of the fixed reference work takes right now.

    The work is a shortest-path search on a weighted ``size`` x ``size``
    grid with ``heapq``, tuples and a dict: the kind of interpreter work the
    compiler's routing and scheduling do.
    """
    started = time.perf_counter()
    dist: dict[tuple[int, int], int] = {}
    heap = [(0, 0, 0)]
    while heap:
        d, x, y = heapq.heappop(heap)
        if (x, y) in dist:
            continue
        dist[(x, y)] = d
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < size and 0 <= ny < size and (nx, ny) not in dist:
                heapq.heappush(heap, (d + 1 + (nx * 7 + ny * 3) % 5, nx, ny))
    if dist[(size - 1, size - 1)] <= 0:
        raise RuntimeError("gauge search went wrong")
    return time.perf_counter() - started


def at_reference_speed(seconds: list[float], gauges: list[float]) -> list[float]:
    """Scale each timing to the reference speed by the gauge runs around it.

    ``gauges[i]`` is the gauge timed just before ``seconds[i]``.  The host's
    speed at timing ``i`` is the mean of the :data:`GAUGE_WINDOW` gauges
    centred on it.
    """
    half = GAUGE_WINDOW // 2
    return [
        value * GAUGE_REFERENCE_S / statistics.fmean(gauges[max(0, i - half) : i + half + 1])
        for i, value in enumerate(seconds)
    ]


def speed_factor() -> float:
    """Reference gauge time over the current one: multiply seconds by it."""
    return GAUGE_REFERENCE_S / statistics.fmean(gauge() for _ in range(GAUGE_WINDOW))


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(statistics.fmean(math.log(v) for v in values))


def p90(values: list[float]) -> float:
    """90th percentile, interpolated within the observed range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def median_by_key(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the median over the dicts that carry it."""
    keys = {key for sample in samples for key in sample}
    return {key: statistics.median(s[key] for s in samples if key in s) for key in keys}


def median_rows(samples: list[dict[str, tuple[float, float]]]) -> list[tuple[str, float, float]]:
    """Layer-table rows: per span name, the median busy and self seconds."""
    names = sorted({name for sample in samples for name in sample})
    return [
        (
            name,
            statistics.median(s[name][0] for s in samples if name in s),
            statistics.median(s[name][1] for s in samples if name in s),
        )
        for name in names
    ]


def add_counters(total: dict[str, float], counters: dict | None) -> None:
    """Sum one compile's engine counters into ``total``."""
    for name, value in (counters or {}).items():
        total[name] = total.get(name, 0) + value


def counter_layers(counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics derived from summed engine counters.

    A counter the engine no longer reports leaves its metric out, so the
    layer reads as absent rather than as a measured zero.
    """
    out: dict[str, float] = {}
    calls = counters.get("route_calls")
    if calls is not None:
        out["routing.route_calls"] = calls
        if calls and "nodes_expanded" in counters:
            out["routing.expansions_per_route"] = counters["nodes_expanded"] / calls
        if calls and "route_failures" in counters:
            out["routing.route_failure_frac"] = counters["route_failures"] / calls
    if "landmark_build_seconds" in counters:
        out["routing.landmark_build_s"] = counters["landmark_build_seconds"]
    if "layer_memo_hits" in counters and "layer_memo_misses" in counters:
        lookups = counters["layer_memo_hits"] + counters["layer_memo_misses"]
        out["core.layer_memo.lookups"] = lookups
        if lookups:
            out["core.layer_memo.hit_frac"] = counters["layer_memo_hits"] / lookups
    if "cycles_simulated" in counters:
        out["core.scheduler.cycles_simulated"] = counters["cycles_simulated"]
    return out
