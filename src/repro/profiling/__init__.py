"""Profiling helpers: placement and hot-path work counters."""

from repro.profiling.instrumentation import EngineCounters, PlacementCounters

__all__ = ["EngineCounters", "PlacementCounters"]
