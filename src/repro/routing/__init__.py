"""Routing substrate: capacity-aware path search over the corridor graph.

:class:`FastRouter` answers every path query of the schedulers;
:class:`CapacityUsage` tracks one cycle's reservations and
:func:`route_edge_disjoint` packs a batch of pairs into one cycle.
"""

from repro.routing.edp import route_edge_disjoint
from repro.routing.fast_router import FastRouter
from repro.routing.paths import CapacityUsage, RoutedPath

__all__ = [
    "RoutedPath",
    "CapacityUsage",
    "FastRouter",
    "route_edge_disjoint",
]
