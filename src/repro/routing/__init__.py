"""Routing substrate: capacity-aware path search over the corridor graph."""

from repro.routing.edp import can_route_simultaneously, max_simultaneous, route_edge_disjoint
from repro.routing.fast_router import FastRouter
from repro.routing.paths import CapacityUsage, RoutedPath
from repro.routing.router import CycleRouter, CycleRoutingResult, RoutingRequest

__all__ = [
    "RoutedPath",
    "CapacityUsage",
    "FastRouter",
    "CycleRouter",
    "CycleRoutingResult",
    "RoutingRequest",
    "route_edge_disjoint",
    "can_route_simultaneously",
    "max_simultaneous",
]
