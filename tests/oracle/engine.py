"""The reference scheduling engine, assembled from the production schedulers.

The production Algorithm 1 schedulers keep their ready set incrementally
sorted, route with landmark A* and replay repeated layers from a memo.  The
reference engine is the same loop with each of those three accelerations
swapped for its obviously-correct counterpart:

* :class:`ReferenceReadyQueue` recomputes the prioritised ready list from
  scratch every cycle, calling ``priority(dag, available)`` exactly as the
  paper's Algorithm 1 states it;
* :class:`~oracle.dijkstra.OracleRouter` answers every path query with the
  reference Dijkstra (ReSu, the mapping stage's pre-routing and
  :func:`~repro.routing.edp.route_edge_disjoint` included);
* layer memoization is forced off.

:func:`reference_engine` installs all three for the duration of a ``with``
block, so any compile inside it runs on the reference engine.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.chip.routing_graph import RoutingGraph
from repro.core import algorithm1
from repro.pipeline.registry import run_pipeline_method
from repro.routing import edp, fast_router

from .dijkstra import OracleRouter


class ReferenceReadyQueue:
    """The ready-set interface of the production queue, recomputed every cycle."""

    def __init__(self, dag, priority, initial_ready=()):
        self._dag = dag
        self._priority = priority
        #: Ready, not yet dispatched nodes.
        self._ready: set[int] = set(initial_ready)

    def add(self, nodes) -> None:
        """Gate retirement made ``nodes`` ready."""
        self._ready.update(nodes)

    def discard(self, node: int) -> None:
        """``node`` was dispatched."""
        self._ready.discard(node)

    def available(self, busy_until, cycle: int) -> list[int]:
        """The ready gates whose operand tiles are free, in priority order."""
        operands = self._dag.operand_pairs
        available = [
            node
            for node in sorted(self._ready)
            if busy_until[operands[node][0]] <= cycle and busy_until[operands[node][1]] <= cycle
        ]
        return self._priority(self._dag, available)


def _oracle_routing(chip):
    return OracleRouter(RoutingGraph(chip))


def _without_memo(cls):
    """Patch ``cls.__init__`` so every instance is built with ``memoize=False``."""
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **{**kwargs, "memoize": False})

    return mock.patch.object(cls, "__init__", __init__)


@contextmanager
def reference_engine():
    """Run every compile inside the block on the reference engine."""
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(algorithm1, "IncrementalReadyQueue", ReferenceReadyQueue)
        )
        stack.enter_context(_without_memo(algorithm1.Algorithm1Scheduler))
        stack.enter_context(mock.patch.object(edp, "FastRouter", OracleRouter))
        previous = fast_router.set_routing_provider(_oracle_routing)
        stack.callback(fast_router.set_routing_provider, previous)
        yield


def reference_compile(circuit, method, **kwargs):
    """:func:`~repro.pipeline.registry.run_pipeline_method` on the reference engine."""
    with reference_engine():
        return run_pipeline_method(circuit, method, **kwargs)
