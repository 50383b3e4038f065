"""Warm per-chip compile state for the long-lived service process.

A one-shot CLI compile rebuilds the integer-indexed
:class:`~repro.chip.routing_graph.RoutingGraph` of its chip on every
invocation.  The daemon keeps it warm: a :class:`WarmStateCache` keeps an
LRU of :class:`WarmChipState` entries keyed by chip *content* (the same
:func:`~repro.pipeline.batch.chip_key` the result cache fingerprints with),
and installs itself as the process-wide routing provider
(:func:`repro.routing.fast_router.set_routing_provider`) so the schedulers
pick the warm graphs up without any signature changes.

The landmark tables and unloaded paths are not warm-chip state: they live
in the process's route-memo store
(:data:`~repro.routing.fast_router.ROUTE_MEMOS`), keyed by routing topology,
which every router draws from.  Chips that differ only in lane counts share
one memo there, and a memo outlives the eviction of every warm chip of its
topology; the store's own cell budget bounds it.

Sharing is safe because everything cached is immutable after construction:
graphs never change, and routers only *grow* memos whose entries are
value-determined by the topology.  The cache is lock-protected, so
concurrent readers are safe; the service nevertheless compiles on a single
worker thread.
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
from repro.routing.fast_router import ROUTE_MEMOS, FastRouter, set_routing_provider

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
    """Everything worth keeping hot for one chip: its routing graph.

    The graph is built on the first compile against this chip and shared by
    all subsequent ones; each compile's router over it takes the topology's
    memo from the process's store.
    """

    key: str
    chip: Chip
    graph: RoutingGraph
    hits: int = 0
    built_at: float = field(default_factory=time.time)

    def stats(self) -> dict:
        """Per-chip counters surfaced under ``/stats`` (the memo is the topology's)."""
        memo = ROUTE_MEMOS.peek(self.graph.topology)
        return {
            "chip": self.chip.describe(),
            "hits": self.hits,
            # lint: disable=DET004 — warm-state age for monitoring only
            "age_seconds": time.time() - self.built_at,
            "landmark_tables": 0 if memo is None else len(memo.tables),
            "static_paths": 0 if memo is None else len(memo.static_paths),
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
        """The routing-provider entry point: a router over ``chip``'s warm graph.

        Cold construction of the graph happens *outside* the lock so that a
        long build of a large chip never blocks concurrent readers such as
        the daemon's ``/stats`` handler; a double-check on re-acquire keeps
        racing builders consistent (last writer discards its duplicate).
        """
        key = chip_state_key(chip)
        with self._lock:
            state = self._entries.get(key)
            if state is not None:
                self.hits += 1
                state.hits += 1
                self._entries.move_to_end(key)
        if state is None:
            graph = RoutingGraph(chip)  # cold build, lock not held
            with self._lock:
                state = self._entries.get(key)
                if state is None:
                    state = WarmChipState(key=key, chip=chip, graph=graph)
                    self._entries[key] = state
                    self.misses += 1
                else:
                    self.hits += 1
                    state.hits += 1
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return FastRouter(state.graph)

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
        """Counters for ``/stats``: capacity, occupancy, hit/evict totals, per-chip detail.

        ``route_memos`` holds the process store's counts
        (:meth:`~repro.routing.fast_router.RouteMemoStore.stats`).
        """
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "route_memos": ROUTE_MEMOS.stats(),
                "chips": [state.stats() for state in self._entries.values()],
            }
