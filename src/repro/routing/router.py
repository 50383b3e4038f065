"""Per-cycle multi-gate routing.

:class:`CycleRouter` routes a prioritised list of CNOT gates within a single
clock cycle through :class:`~repro.routing.fast_router.FastRouter`,
optionally applying one round of rip-up-and-reroute to squeeze in gates that
a purely greedy order would block.  Its users are the edge-disjoint-path
helpers of :mod:`repro.routing.edp`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip.routing_graph import Node, RoutingGraph
from repro.routing.fast_router import FastRouter
from repro.routing.paths import CapacityUsage, RoutedPath


@dataclass(frozen=True)
class RoutingRequest:
    """One CNOT to route in the current cycle."""

    gate_node: int
    source: Node
    target: Node
    #: Lanes reserved on every edge of the resulting path (double defect CNOTs
    #: between same-cut tiles need two braids through the channel).
    lanes: int = 1


@dataclass
class CycleRoutingResult:
    """Outcome of routing one cycle's worth of gates."""

    routed: dict[int, RoutedPath]
    failed: list[int]

    @property
    def num_routed(self) -> int:
        """Number of gates that received a path this cycle."""
        return len(self.routed)


class CycleRouter:
    """Routes a prioritised batch of gates within one clock cycle."""

    def __init__(self, graph: RoutingGraph, congestion_weight: float = 0.25, rip_up_rounds: int = 1):
        self._graph = graph
        self._router = FastRouter(graph)
        self._congestion_weight = congestion_weight
        self._rip_up_rounds = rip_up_rounds

    @property
    def graph(self) -> RoutingGraph:
        """The routing graph used by this router."""
        return self._graph

    def route_cycle(
        self,
        requests: list[RoutingRequest],
        usage: CapacityUsage | None = None,
    ) -> CycleRoutingResult:
        """Route ``requests`` in order, sharing the cycle's capacity.

        ``usage`` may carry reservations made earlier in the same cycle (for
        example multi-cycle reservations from the double defect scheduler);
        it is mutated in place when provided.
        """
        if usage is None:
            usage = CapacityUsage()
        routed: dict[int, RoutedPath] = {}
        failed: list[int] = []
        for request in requests:
            path = self._route_single(request, usage)
            if path is None:
                failed.append(request.gate_node)
            else:
                routed[request.gate_node] = path
        if failed and self._rip_up_rounds > 0:
            routed, failed = self._rip_up(requests, routed, failed, usage)
        return CycleRoutingResult(routed=routed, failed=failed)

    # ----------------------------------------------------------------- internals
    def _find(self, usage: CapacityUsage, request: RoutingRequest) -> RoutedPath | None:
        return self._router.find(usage, request.source, request.target, self._congestion_weight)

    def _route_single(self, request: RoutingRequest, usage: CapacityUsage) -> RoutedPath | None:
        if request.lanes > 1:
            # A multi-lane reservation needs that many residual lanes everywhere
            # along the path; emulate by temporarily treating the path as
            # ``lanes`` successive single-lane routings over the same edges.
            path = self._find(usage, request)
            if path is None:
                return None
            if any(
                usage.residual(self._graph, a, b) < request.lanes
                for a, b in zip(path.nodes, path.nodes[1:])
            ):
                # Retry with a usage view that hides edges lacking enough lanes.
                masked = usage.copy()
                for (a, b) in self._graph.edges:
                    if usage.residual(self._graph, a, b) < request.lanes:
                        masked.used[(a, b)] = self._graph.capacity(a, b)
                path = self._find(masked, request)
                if path is None:
                    return None
            usage.add_path(path, lanes=request.lanes)
            return path
        path = self._find(usage, request)
        if path is not None:
            usage.add_path(path, lanes=request.lanes)
        return path

    def _rip_up(
        self,
        requests: list[RoutingRequest],
        routed: dict[int, RoutedPath],
        failed: list[int],
        usage: CapacityUsage,
    ) -> tuple[dict[int, RoutedPath], list[int]]:
        """One round of rip-up-and-reroute for the failed gates.

        For each failed gate, temporarily remove the longest already-routed
        path, try to route the failed gate, then re-route the removed gate.
        Keep the change only if both succeed (strictly more gates routed).
        """
        by_node = {r.gate_node: r for r in requests}
        still_failed: list[int] = []
        for _ in range(self._rip_up_rounds):
            still_failed = []
            for gate_node in failed:
                request = by_node[gate_node]
                victim = self._pick_victim(routed, by_node, request)
                if victim is None:
                    still_failed.append(gate_node)
                    continue
                victim_request = by_node[victim]
                victim_path = routed[victim]
                usage.remove_path(victim_path, lanes=victim_request.lanes)
                new_path = self._route_single(request, usage)
                if new_path is None:
                    usage.add_path(victim_path, lanes=victim_request.lanes)
                    still_failed.append(gate_node)
                    continue
                replacement = self._route_single(victim_request, usage)
                if replacement is None:
                    # Roll back: undo the new path, restore the victim.
                    usage.remove_path(new_path, lanes=request.lanes)
                    usage.add_path(victim_path, lanes=victim_request.lanes)
                    still_failed.append(gate_node)
                    continue
                routed[gate_node] = new_path
                routed[victim] = replacement
            failed = still_failed
            if not failed:
                break
        return routed, still_failed

    def _pick_victim(
        self,
        routed: dict[int, RoutedPath],
        by_node: dict[int, RoutingRequest],
        request: RoutingRequest,
    ) -> int | None:
        """Choose an already-routed gate whose path most plausibly blocks ``request``."""
        relevant = [
            (path.length, gate_node)
            for gate_node, path in routed.items()
            if by_node[gate_node].lanes <= 1
        ]
        if not relevant:
            return None
        _, victim = max(relevant)
        return victim
