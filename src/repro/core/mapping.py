"""Initial mapping: tile-array shape, qubit placement, bandwidth adjusting.

This implements the three pre-processing steps of Ecmas (Section IV-B1):

1. **Shape determining** — choose the logical tile array shape (e.g. 3×3 vs
   2×4 for eight qubits) with the smallest perimeter that fits on the chip.
2. **Mapping establishing** — map qubits to tiles so that heavily
   communicating qubits are close, by recursive Kernighan–Lin bisection of
   the communication graph (the METIS substitute); several seeded attempts
   are generated and the one with the smallest communication cost
   ``f = Σ γ_ij · l_ij`` is kept.
3. **Bandwidth adjusting** — pre-route every CNOT along its unconstrained
   shortest path, attribute the load to corridors, and hand the chip's spare
   lanes to the most loaded corridors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.chip.chip import Chip, TileSlot
from repro.chip.routing_graph import RoutingGraph, tile_node_for
from repro.circuits.circuit import Circuit
from repro.circuits.comm_graph import CommunicationGraph
from repro.circuits.dag import GateDAG
from repro.core.cut_types import CutAssignment
from repro.errors import ChipError, MappingError
from repro.partition.placement import (
    Placement,
    alive_in_window,
    best_placement,
    communication_cost,
    graph_domain,
    grid_domain,
    random_placement,
    snake_placement,
    spectral_placement,
)
from repro.profiling import PlacementCounters
from repro.routing.fast_router import routing_for
from repro.routing.paths import CapacityUsage


@dataclass(frozen=True)
class InitialMapping:
    """The output of the pre-processing stage.

    ``chip`` may differ from the input chip in its corridor bandwidths (the
    bandwidth-adjusting step); the tile array itself never changes.
    """

    chip: Chip
    placement: Placement
    cut_types: CutAssignment | None
    shape: tuple[int, int]
    mapping_cost: float


def determine_shape(num_qubits: int, chip: Chip) -> tuple[int, int]:
    """Choose the tile-array shape with minimum perimeter that fits the chip.

    Among shapes ``r × c`` with ``r*c >= num_qubits`` that fit inside the
    chip's tile array, the one minimising the perimeter ``2(r+c)`` is chosen;
    ties prefer the squarer shape (paper Fig. 10a picks 3×3 over 2×4).

    On a defective chip a shape only qualifies when its window (anchored at
    the tile-array origin) still holds ``num_qubits`` *alive* slots; when no
    compact shape survives the defects, the full tile array is used.  A chip
    without enough alive slots at all raises :class:`ChipError`.
    """
    if num_qubits > chip.num_tile_slots:
        raise MappingError(
            f"chip has {chip.num_tile_slots} tile slots but the circuit needs {num_qubits}"
        )
    if num_qubits > chip.num_alive_tile_slots:
        raise ChipError(
            f"chip has {chip.num_alive_tile_slots} alive tile slots "
            f"({len(chip.defects.dead_tiles)} dead) but the circuit needs {num_qubits}"
        )
    if chip.tile_graph is not None:
        # Graph chips have no rectangular windows; the "shape" is the whole
        # graph, reported as (num_nodes, 1) to match the slot addressing.
        return (chip.tile_rows, chip.tile_cols)
    dead = chip.defects.dead_set()
    best: tuple[int, int] | None = None
    best_key: tuple[int, int, int] | None = None
    for rows in range(1, chip.tile_rows + 1):
        cols = -(-num_qubits // rows)  # ceil division
        while cols <= chip.tile_cols and alive_in_window(0, rows, 0, cols, dead) < num_qubits:
            cols += 1  # widen the window until the dead tiles are compensated
        if cols > chip.tile_cols:
            continue
        key = (rows + cols, abs(rows - cols), rows * cols)
        if best_key is None or key < best_key:
            best, best_key = (rows, cols), key
    if best is None:
        # Dead tiles ruled out every compact window; fall back to the full
        # array, which the alive-slot check above guarantees is sufficient.
        return (chip.tile_rows, chip.tile_cols)
    return best


#: Placement strategy → ``place(graph, domain, attempts, seed, engine, counters)``.
#: ``"ecmas"`` is multi-attempt recursive bisection (the default), ``"metis"``
#: single-attempt (the Table II "Metis" column), ``"trivial"`` the EDPCI snake.
PLACEMENT_STRATEGIES: dict[str, Callable[..., Placement]] = {
    "ecmas": best_placement,
    "metis": lambda graph, domain, _attempts, seed, engine, counters: best_placement(
        graph, domain, 1, seed, engine, counters
    ),
    "trivial": lambda graph, domain, *_: snake_placement(graph.num_qubits, domain),
    "spectral": lambda graph, domain, *_: spectral_placement(graph, domain),
    "random": lambda graph, domain, _attempts, seed, *_: random_placement(
        graph.num_qubits, domain, seed
    ),
}


def establish_placement(
    graph: CommunicationGraph,
    shape: tuple[int, int],
    strategy: str = "ecmas",
    attempts: int = 4,
    seed: int = 0,
    dead: frozenset[tuple[int, int]] = frozenset(),
    placement_engine: str = "reference",
    chip: Chip | None = None,
    counters: PlacementCounters | None = None,
) -> Placement:
    """Map qubits to tile slots within ``shape`` using the requested strategy.

    Strategies are the keys of :data:`PLACEMENT_STRATEGIES`.  ``dead`` lists
    tile slots no strategy may use.  ``placement_engine`` picks the bisection
    core for the bisection-based strategies (classic KL ``reference`` vs
    multilevel ``fast``); the other strategies ignore it, and leave
    ``counters`` (the bisection work, when given) untouched.

    The slots come from a :class:`~repro.partition.placement.SlotDomain`:
    the ``shape`` window with ``dead`` removed, or, when a graph ``chip``
    (``tile_graph`` set) is passed, the chip's own tiles — bisection then
    splits the tile graph's layout and costs use BFS hop distance.
    """
    place = PLACEMENT_STRATEGIES.get(strategy)
    if place is None:
        raise MappingError(f"unknown placement strategy {strategy!r}")
    if chip is not None and chip.tile_graph is not None:
        domain = graph_domain(chip)
    else:
        domain = grid_domain(*shape, dead)
    return place(graph, domain, attempts, seed, placement_engine, counters)


def qubit_tile_ids(graph: RoutingGraph, placement: Placement, dag: GateDAG) -> list[int]:
    """The tile id of every operand qubit of ``dag``, indexed by qubit (``-1`` elsewhere).

    A qubit without a slot raises the placement's
    :class:`~repro.errors.MappingError`; one on a tile ``graph`` lacks (dead
    or off the tile array) raises :class:`~repro.errors.RoutingError` naming
    the tile.
    """
    tile_ids = [-1] * dag.num_qubits
    for pair in dag.operand_pairs:
        for qubit in pair:
            if tile_ids[qubit] < 0:
                tile_ids[qubit] = graph.tile_id(tile_node_for(placement.slot_of(qubit)))
    return tile_ids


def corridor_load(
    chip: Chip,
    placement: Placement,
    graph: CommunicationGraph,
) -> dict[tuple[str, int], float]:
    """Pre-route every CNOT (ignoring conflicts) and accumulate corridor load.

    Returns the load per corridor, keyed as
    :meth:`~repro.chip.routing_graph.RoutingGraph.corridor_of` names it:
    ``("h", r)`` and ``("v", c)`` on square chips, ``("e", index)`` per
    tile-graph edge on graph chips.  A corridor's load grows by the CNOT
    multiplicity of every pair whose unconstrained shortest path crosses it;
    corridors no path crosses are absent.

    Routing state comes from the :func:`repro.routing.fast_router.routing_for`
    seam, so daemon processes reuse their warm per-chip graphs here instead
    of rebuilding one per compile.  Each pair follows the canonical
    (lexicographically smallest shortest) path, which the router reads off
    its cached BFS hop tables.  Those tables and paths land in the
    process's memo of this chip's topology, which the adjusted chip keeps,
    so the scheduler reuses them.
    """
    router = routing_for(chip)
    routing_graph = router.graph
    corridors = routing_graph.corridors
    load: dict[tuple[str, int], float] = {}
    empty = CapacityUsage()
    for a, b, weight in graph.edges():
        source = routing_graph.tile_id(tile_node_for(placement.slot_of(a)))
        target = routing_graph.tile_id(tile_node_for(placement.slot_of(b)))
        path = router.find(empty, source, target)
        if path is None:
            continue  # disconnected pair (defective chips); no load to record
        for eid in path.edges:
            corridor = corridors[eid]
            if corridor is not None:
                load[corridor] = load.get(corridor, 0.0) + weight
    return load


def adjust_edge_bandwidth(
    chip: Chip,
    placement: Placement,
    graph: CommunicationGraph,
) -> Chip:
    """Per-edge bandwidth adjusting for graph chips.

    Every edge starts at one lane; the remaining width of each node's budget
    is then granted to edges in descending load order (ties broken by edge
    index), an edge receiving another lane only while *both* its endpoints
    have budget left.  With no spare budget anywhere (the default budgets
    derived from nominal bandwidths on a uniform chip) the chip is returned
    unchanged.
    """
    tile_graph = chip.tile_graph
    budgets = list(tile_graph.effective_node_budgets())
    bandwidths = [1] * tile_graph.num_edges
    for a, b in tile_graph.edges:
        budgets[a] -= 1
        budgets[b] -= 1
    if all(b <= 0 for b in budgets):
        return chip  # no spare width anywhere; skip the pre-routing pass
    corridors = corridor_load(chip, placement, graph)
    load = [corridors.get(("e", index), 0.0) for index in range(tile_graph.num_edges)]
    order = sorted(range(tile_graph.num_edges), key=lambda e: (-load[e], e))
    granted = True
    while granted:
        granted = False
        for index in order:
            if load[index] <= 0:
                continue
            a, b = tile_graph.edges[index]
            if budgets[a] >= 1 and budgets[b] >= 1:
                bandwidths[index] += 1
                budgets[a] -= 1
                budgets[b] -= 1
                granted = True
    if bandwidths == list(tile_graph.bandwidths):
        return chip
    return chip.with_edge_bandwidths(bandwidths)


def adjust_bandwidth(
    chip: Chip,
    placement: Placement,
    graph: CommunicationGraph,
) -> Chip:
    """Redistribute spare lanes towards the most loaded corridors.

    The chip's per-axis lane budget is respected; every corridor keeps at
    least one lane, so the adjusted chip keeps the routing topology and the
    routing answers :func:`corridor_load` leaves in its route memo.  On the
    minimum viable chip there is no spare budget and the chip is returned
    unchanged.  Graph chips redistribute per edge under per-node width
    budgets instead (:func:`adjust_edge_bandwidth`).
    """
    if chip.tile_graph is not None:
        return adjust_edge_bandwidth(chip, placement, graph)
    h_budget, v_budget = chip.lane_budget_per_axis()
    h_spare = h_budget - (chip.tile_rows + 1)
    v_spare = v_budget - (chip.tile_cols + 1)
    if h_spare <= 0 and v_spare <= 0:
        return chip
    load = corridor_load(chip, placement, graph)
    h_bandwidths = _distribute(load, "h", chip.tile_rows + 1, h_budget)
    v_bandwidths = _distribute(load, "v", chip.tile_cols + 1, v_budget)
    return chip.with_bandwidths(h_bandwidths, v_bandwidths)


def _distribute(
    corridor_loads: dict[tuple[str, int], float], axis: str, corridors: int, budget: int
) -> list[int]:
    """Give every ``axis`` corridor one lane, then spare lanes proportionally to load."""
    load = [corridor_loads.get((axis, i), 0.0) for i in range(corridors)]
    bandwidths = [1] * corridors
    spare = budget - corridors
    if spare <= 0:
        return bandwidths
    total_load = sum(load)
    if total_load <= 0:
        # No recorded traffic: spread the spare lanes evenly from the centre out.
        order = sorted(range(corridors), key=lambda i: abs(i - corridors / 2.0 + 0.5))
        for offset in range(spare):
            bandwidths[order[offset % corridors]] += 1
        return bandwidths
    # Largest-remainder proportional allocation.
    shares = {i: spare * load[i] / total_load for i in range(corridors)}
    allocated = {i: int(shares[i]) for i in range(corridors)}
    remaining = spare - sum(allocated.values())
    remainder_order = sorted(range(corridors), key=lambda i: shares[i] - allocated[i], reverse=True)
    for i in remainder_order[:remaining]:
        allocated[i] += 1
    return [1 + allocated[i] for i in range(corridors)]


def build_initial_mapping(
    circuit: Circuit,
    chip: Chip,
    cut_types: CutAssignment | None,
    placement_strategy: str = "ecmas",
    adjust: bool = True,
    attempts: int = 4,
    seed: int = 0,
    placement_engine: str = "reference",
) -> InitialMapping:
    """Run the full pre-processing pipeline for ``circuit`` on ``chip``."""
    graph = circuit.communication_graph()
    shape = determine_shape(circuit.num_qubits, chip)
    placement = establish_placement(
        graph,
        shape,
        strategy=placement_strategy,
        attempts=attempts,
        seed=seed,
        dead=chip.defects.dead_set(),
        placement_engine=placement_engine,
        chip=chip,
    )
    placement.validate(chip)
    adjusted_chip = adjust_bandwidth(chip, placement, graph) if adjust else chip
    cost = communication_cost(graph, placement, distance=chip.slot_distance)
    return InitialMapping(
        chip=adjusted_chip,
        placement=placement,
        cut_types=cut_types,
        shape=shape,
        mapping_cost=cost,
    )
