"""Test oracles: the reference implementations the production code is held to.

* :func:`find_path` — the canonical-path Dijkstra (:mod:`oracle.dijkstra`);
* :func:`reference_engine` / :func:`reference_compile` — the reference
  scheduling engine (:mod:`oracle.engine`).

Import as ``from oracle import ...``; ``tests/`` is on ``sys.path`` under
pytest, and ``benchmarks/conftest.py`` adds it for the benchmark harness.
"""

from .dijkstra import OracleRouter, find_path
from .engine import ReferenceReadyQueue, reference_compile, reference_engine

__all__ = [
    "OracleRouter",
    "ReferenceReadyQueue",
    "find_path",
    "reference_compile",
    "reference_engine",
]
