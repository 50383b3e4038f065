"""Routing acquisition and stall diagnostics shared by the schedulers.

Every scheduler obtains its :class:`~repro.chip.routing_graph.RoutingGraph`
and :class:`~repro.routing.fast_router.FastRouter` through
:func:`routing_for`, which consults an installable provider.  Long-lived
processes — the compile daemon in :mod:`repro.service` — install a provider
backed by an LRU of warm per-chip state so that repeated compiles against the
same chip reuse the graph and the router's memoized landmark tables instead
of rebuilding them from cold.  One-shot callers never notice: with no
provider installed, :func:`routing_for` builds fresh state.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.chip.chip import Chip
from repro.chip.routing_graph import RoutingGraph
from repro.errors import SchedulingError
from repro.routing.fast_router import FastRouter

#: A routing provider maps a chip to a ``(graph, router)`` pair.  Both
#: returned objects are immutable-after-construction (the router only grows
#: memo tables), so a provider may hand the same instances to any number of
#: sequential compiles.
RoutingProvider = Callable[[Chip], "tuple[RoutingGraph, FastRouter]"]

_routing_provider: RoutingProvider | None = None


def set_routing_provider(provider: RoutingProvider | None) -> RoutingProvider | None:
    """Install (or with ``None`` clear) the process-wide routing provider.

    Returns the previous provider so callers can restore it; see
    :class:`repro.service.state.WarmStateCache` for the canonical user.
    """
    global _routing_provider  # lint: disable=FRK001 — this IS the sanctioned seam
    previous = _routing_provider
    _routing_provider = provider
    return previous


def routing_for(chip: Chip) -> tuple[RoutingGraph, FastRouter]:
    """The routing graph and router a scheduler should use for ``chip``.

    Delegates to the installed provider when there is one (warm-state reuse
    in daemon processes) and otherwise builds fresh state.  The result is
    always semantically identical either way: graphs are value-determined by
    the chip, and router memo tables only cache derived data.
    """
    if _routing_provider is not None:
        return _routing_provider(chip)
    graph = RoutingGraph(chip)
    return graph, FastRouter(graph)


def stalled_schedule_error(
    kind: str,
    cycle: int,
    max_cycles: int,
    frontier,
    dag,
    busy_until: dict[int, int],
    dispatched=(),
) -> SchedulingError:
    """Build the safety-bound diagnostic for a scheduler that stopped progressing.

    Names the first *blocked* ready gate — ready but not yet dispatched —
    with its operand qubits and tile busy horizons, so a stall points at the
    offending gate instead of only at the cycle budget.  Gates in
    ``dispatched`` are executing, not blocked; when only those remain the
    message says so instead of blaming one of them.
    """
    message = (
        f"{kind} scheduler exceeded {max_cycles} cycles at cycle {cycle}; "
        f"{frontier.num_remaining} gates remain"
    )
    blocked = [node for node in frontier.ready_nodes() if node not in dispatched]
    if blocked:
        node = blocked[0]
        control, target = dag.operands(node)
        message += (
            f"; first blocked gate: node {node} CX(q{control}, q{target})"
            f" with tiles busy until cycles {busy_until[control]} and"
            f" {busy_until[target]}"
        )
    elif frontier.ready_nodes():
        message += f"; {len(frontier.ready_nodes())} dispatched gate(s) still in flight"
    return SchedulingError(message)
