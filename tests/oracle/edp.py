"""Edge-disjoint-path packing for one clock cycle.

The capacity theorem tests check Theorem 2 of the paper — any
``⌊(b-1)/2⌋ + 3`` independent CNOT gates can execute simultaneously on a
chip of bandwidth ``b`` — by exhibiting simultaneous routings for random
placements.  :func:`route_edge_disjoint` finds those routings.

The packing is a greedy shortest-first pass through
:class:`~repro.routing.fast_router.FastRouter` followed by rip-up-and-reroute
rounds (exact maximum EDP is NP-hard), which matches how the published EDPCI
compiler (Beverland et al., "Surface code compilation via edge-disjoint
paths") operates in practice.  No scheduler packs a cycle this way — they
route gate by gate and never release a reservation — so the packing lives
with the test oracle, on the tuple-keyed :class:`~oracle.usage.ReferenceUsage`
whose ``remove_path`` rip-up needs.  Under
:func:`~oracle.engine.reference_engine` its router is the reference
Dijkstra.
"""

from __future__ import annotations

from repro.chip.routing_graph import Node, RoutingGraph
from repro.routing.fast_router import FastRouter
from repro.routing.paths import RoutedPath

from .usage import ReferenceUsage, find_routed

#: Congestion penalty per used lane: spreads paths over free corridors.
_CONGESTION_WEIGHT = 0.25


def route_edge_disjoint(
    graph: RoutingGraph,
    pairs: list[tuple[Node, Node]],
    usage: ReferenceUsage | None = None,
    rip_up_rounds: int = 2,
) -> tuple[dict[int, RoutedPath], list[int]]:
    """Route as many of ``pairs`` as possible with capacity-respecting paths.

    Pairs are indexed by their position in the input list.  Returns the routed
    paths by index and the list of indices that could not be routed this cycle.
    Shorter source-target separations are attempted first, which is the usual
    greedy order for edge-disjoint path packing.  ``usage`` may carry earlier
    reservations of the same cycle; it is mutated in place when provided.
    """
    router = FastRouter(graph)
    if usage is None:
        usage = ReferenceUsage()

    def route(idx: int) -> RoutedPath | None:
        source, target = pairs[idx]
        path = find_routed(router, usage, source, target, _CONGESTION_WEIGHT)
        if path is not None:
            usage.add_path(path)
        return path

    order = sorted(range(len(pairs)), key=lambda idx: _slot_distance(*pairs[idx]))
    routed: dict[int, RoutedPath] = {}
    failed: list[int] = []
    for idx in order:
        path = route(idx)
        if path is None:
            failed.append(idx)
        else:
            routed[idx] = path
    # Rip-up-and-reroute: for each failed pair, lift the longest routed path
    # (ties to the larger index), route the failed pair, then re-route the
    # lifted one.  Keep the change only if both succeed.
    for _ in range(rip_up_rounds):
        if not failed:
            break
        still_failed: list[int] = []
        for idx in failed:
            if not routed:
                still_failed.append(idx)
                continue
            _, victim = max((path.length, other) for other, path in routed.items())
            victim_path = routed[victim]
            usage.remove_path(victim_path)
            new_path = route(idx)
            if new_path is None:
                usage.add_path(victim_path)
                still_failed.append(idx)
                continue
            replacement = route(victim)
            if replacement is None:
                usage.remove_path(new_path)
                usage.add_path(victim_path)
                still_failed.append(idx)
                continue
            routed[idx] = new_path
            routed[victim] = replacement
        failed = still_failed
    return routed, sorted(failed)


def _slot_distance(a: Node, b: Node) -> int:
    """Manhattan distance between two tile nodes (used for greedy ordering)."""
    return abs(a[1] - b[1]) + abs(a[2] - b[2])
