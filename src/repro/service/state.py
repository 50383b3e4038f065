"""Warm per-chip compile state for the long-lived service process.

A one-shot CLI compile pays two cold-start costs for every invocation: the
integer-indexed :class:`~repro.chip.routing_graph.RoutingGraph` is rebuilt
from the chip, and every landmark table of its
:class:`~repro.routing.fast_router.FastRouter` is re-run from scratch.  The
daemon amortises both: a :class:`WarmStateCache` keeps an LRU of
:class:`WarmChipState` entries keyed by chip *content* (the same
:func:`~repro.pipeline.batch.chip_key` the result cache fingerprints with),
and installs itself as the process-wide routing provider
(:func:`repro.routing.fast_router.set_routing_provider`) so the schedulers
pick the warm state up without any signature changes.

Sharing is safe because everything cached is immutable after construction:
graphs never change, and the router only *grows* memo tables whose entries
are value-determined by the static graph.  The cache is lock-protected, so
concurrent readers are safe; the service nevertheless compiles on a single
worker thread, keeping router memo growth single-writer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.chip.chip import Chip
from repro.chip.routing_graph import RoutingGraph
from repro.pipeline.batch import chip_key
from repro.routing.fast_router import FastRouter, set_routing_provider

#: Default number of distinct chips kept warm.
DEFAULT_WARM_CHIPS = 8


def chip_state_key(chip: Chip) -> str:
    """The warm-state identity of ``chip``: its content key, JSON-encoded.

    Uses :func:`repro.pipeline.batch.chip_key`, so warm-state identity and
    result-cache identity can never drift apart.
    """
    return json.dumps(chip_key(chip), sort_keys=True, separators=(",", ":"))


@dataclass
class WarmChipState:
    """Everything worth keeping hot for one chip.

    The router (and its graph, ``router.graph``) is built on the first
    compile against this chip and then shared by all subsequent ones, which
    is what makes its landmark tables pay off across requests.
    """

    key: str
    chip: Chip
    router: FastRouter
    hits: int = 0
    built_at: float = field(default_factory=time.time)

    def stats(self) -> dict:
        """Per-chip counters surfaced under ``/stats``."""
        return {
            "chip": self.chip.describe(),
            "hits": self.hits,
            # lint: disable=DET004 — warm-state age for monitoring only
            "age_seconds": time.time() - self.built_at,
            "landmark_tables": self.router.landmark_table_count,
            "static_paths": self.router.static_path_count,
        }


class WarmStateCache:
    """LRU of :class:`WarmChipState`, installable as the routing provider.

    ``capacity`` bounds the number of distinct chips kept warm; the least
    recently used entry is evicted when a new chip arrives beyond it.  Every
    method is thread-safe.
    """

    def __init__(self, capacity: int = DEFAULT_WARM_CHIPS):
        if capacity < 1:
            raise ValueError(f"warm-state capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, WarmChipState] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._previous_provider = None
        self._installed = False

    # ------------------------------------------------------------- provider
    def acquire(self, chip: Chip) -> FastRouter:
        """The routing-provider entry point: the warm router for ``chip``.

        Cold construction of the graph and router happens *outside* the lock
        so that a long build of a large chip never blocks concurrent readers
        such as the daemon's ``/stats`` handler; a double-check on re-acquire
        keeps racing builders consistent (last writer discards its duplicate).
        """
        key = chip_state_key(chip)
        with self._lock:
            state = self._entries.get(key)
            if state is not None:
                self.hits += 1
                state.hits += 1
                self._entries.move_to_end(key)
        if state is None:
            router = FastRouter(RoutingGraph(chip))  # cold build, lock not held
            with self._lock:
                state = self._entries.get(key)
                if state is None:
                    state = WarmChipState(key=key, chip=chip, router=router)
                    self._entries[key] = state
                    self.misses += 1
                else:
                    self.hits += 1
                    state.hits += 1
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return state.router

    def install(self) -> None:
        """Make this cache the process-wide routing provider."""
        self._previous_provider = set_routing_provider(self.acquire)
        self._installed = True

    def uninstall(self) -> None:
        """Restore whatever provider was installed before :meth:`install`."""
        if self._installed:
            set_routing_provider(self._previous_provider)
            self._previous_provider = None
            self._installed = False

    # ---------------------------------------------------------- inspection
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """The warm chip keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """Counters for ``/stats``: capacity, occupancy, hit/evict totals, per-chip detail."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "chips": [state.stats() for state in self._entries.values()],
            }
