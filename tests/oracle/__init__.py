"""Test oracles: the reference implementations the production code is held to.

* :func:`find_path` — the canonical-path Dijkstra (:mod:`oracle.dijkstra`);
* :func:`reference_engine` / :func:`reference_compile` — the reference
  scheduling engine (:mod:`oracle.engine`);
* :func:`reference_kl` / :func:`reference_placement` — the all-pairs
  Kernighan–Lin bisection core and the placement recursions run on it
  (:mod:`oracle.kl`).

Import as ``from oracle import ...``; ``tests/`` is on ``sys.path`` under
pytest, and ``benchmarks/conftest.py`` adds it for the benchmark harness.
"""

from .dijkstra import OracleRouter, find_path
from .engine import ReferenceReadyQueue, reference_compile, reference_engine
from .kl import kernighan_lin_bisection as reference_kl
from .kl import reference_placement

__all__ = [
    "OracleRouter",
    "ReferenceReadyQueue",
    "find_path",
    "reference_compile",
    "reference_engine",
    "reference_kl",
    "reference_placement",
]
