"""What stays warm in the long-lived service process.

A one-shot CLI compile builds the integer-indexed
:class:`~repro.chip.routing_graph.RoutingGraph` of its chip once.  The daemon
compiles many circuits on few chip shapes — Ecmas sizes each chip from the
qubit count and the Chip Communication Capacity — and keeps their routing
state in the process's routing-graph store,
:data:`~repro.chip.routing_graph.ROUTING_GRAPHS`, which every compile in any
process draws from:

* one graph per chip value, so a chip the daemon has compiled on before is
  one dict hit;
* one shared :class:`~repro.chip.routing_graph.Topology` per chip shape,
  carrying the memo of hop tables and unloaded canonical paths, so a new
  chip of a known shape builds only its lane image and reuses every table.

The store is bounded by a constant cell budget and drops whole topologies,
least recently used first; it has no daemon-specific knob.  Sharing is safe
because graphs never change and memos only *grow* entries determined by the
topology; the store is lock-protected, and the service compiles on a single
worker thread.
"""

from __future__ import annotations

from repro.chip.routing_graph import ROUTING_GRAPHS


def warm_state_stats() -> dict:
    """The ``/stats`` ``warm_state`` object: the store's counters (see :meth:`RoutingGraphStore.stats`)."""
    return ROUTING_GRAPHS.stats()
