"""Routing substrate: capacity-aware path search over the corridor graph.

:class:`FastRouter` answers every path query of the schedulers on the
routing graph's integer ids and returns an :class:`IdPath`;
:class:`CapacityUsage` tracks one cycle's reservations by edge id and
junction id.  :meth:`IdPath.routed` builds the tuple :class:`RoutedPath` a
scheduled operation carries — the one place node tuples come back.
"""

from repro.routing.fast_router import FastRouter
from repro.routing.paths import CapacityUsage, IdPath, RoutedPath

__all__ = [
    "RoutedPath",
    "IdPath",
    "CapacityUsage",
    "FastRouter",
]
