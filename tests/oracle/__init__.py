"""Test oracles: the reference implementations the production code is held to.

* :func:`find_path` — the canonical-path Dijkstra (:mod:`oracle.dijkstra`),
  on the tuple-keyed :class:`ReferenceUsage` (:mod:`oracle.usage`, with the
  id ↔ tuple translations :func:`to_ids`, :func:`from_ids`, :func:`id_path`
  and :func:`find_routed`);
* :func:`route_edge_disjoint` — one cycle's edge-disjoint path packing with
  rip-up-and-reroute (:mod:`oracle.edp`);
* :func:`reference_engine` / :func:`reference_compile` — the reference
  scheduling engine (:mod:`oracle.engine`);
* :func:`reference_kl` / :func:`reference_placement` — the all-pairs
  Kernighan–Lin bisection core and the placement recursions run on it
  (:mod:`oracle.kl`);
* :func:`reference_dag_fields` / :func:`reference_comm_graph` — the
  set-and-sort, Kahn-order CNOT DAG and the per-gate communication graph
  (:mod:`oracle.dag`);
* :func:`reference_tokenize` / :func:`reference_parse` /
  :func:`reference_loads` — the character-loop lexer, token-object parser
  and AST walker of the OpenQASM front end (:mod:`oracle.qasm`);
* :func:`reference_random_defects` / :func:`reference_chip_is_routable` —
  the defect sampler that builds one routing graph per trial
  (:mod:`oracle.defects`).

Import as ``from oracle import ...``; ``tests/`` is on ``sys.path`` under
pytest, and ``benchmarks/conftest.py`` adds it for the benchmark harness.
"""

from .dag import reference_comm_graph, reference_dag_fields
from .defects import reference_chip_is_routable, reference_random_defects
from .dijkstra import OracleRouter, find_path
from .edp import route_edge_disjoint
from .engine import ReferenceReadyQueue, reference_compile, reference_engine
from .kl import kernighan_lin_bisection as reference_kl
from .kl import reference_placement
from .qasm import reference_loads, reference_parse
from .qasm import tokenize as reference_tokenize
from .usage import ReferenceUsage, find_routed, from_ids, id_path, to_ids

__all__ = [
    "OracleRouter",
    "ReferenceReadyQueue",
    "ReferenceUsage",
    "find_path",
    "find_routed",
    "from_ids",
    "id_path",
    "reference_chip_is_routable",
    "reference_comm_graph",
    "reference_compile",
    "reference_dag_fields",
    "reference_engine",
    "reference_kl",
    "reference_loads",
    "reference_parse",
    "reference_placement",
    "reference_random_defects",
    "reference_tokenize",
    "route_edge_disjoint",
    "to_ids",
]
