"""Profiling helpers: hot-path work counters."""

from repro.profiling.instrumentation import EngineCounters

__all__ = ["EngineCounters"]
