"""Recursive-bisection placement of logical qubits onto a tile grid.

This is the METIS-substitute used by the *mapping establishing* step of
Ecmas: the communication graph is recursively bisected (Kernighan–Lin) while
the target rectangle of tile slots is split alongside it, so heavily
communicating qubits land in nearby tiles.  The quality measure is the
paper's communication cost ``f = Σ γ_ij · l_ij`` (CNOT count times Manhattan
distance), exposed as :func:`communication_cost`.

Also provided:

* :func:`trivial_snake_placement` — the boustrophedon layout EDPCI uses,
* :func:`spectral_placement` — a numpy-based spectral alternative used by the
  ablation benches,
* :func:`random_placement` — the random baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.chip.chip import Chip, TileSlot
from repro.circuits.comm_graph import CommunicationGraph
from repro.errors import ChipError, MappingError
from repro.partition.coarsen import multilevel_bisection
from repro.partition.kl import WeightMap, kernighan_lin_bisection

#: Dead tile slots as ``(row, col)`` pairs; the empty set means a pristine chip.
NO_DEAD_TILES: frozenset[tuple[int, int]] = frozenset()

#: Placement engines: ``reference`` = classic KL recursive bisection (the
#: golden baseline), ``fast`` = multilevel coarsen/FM bisection.
PLACEMENT_ENGINES: tuple[str, ...] = ("reference", "fast")

#: Bisection core backing each placement engine.
_BISECTION_CORES = {
    "reference": kernighan_lin_bisection,
    "fast": multilevel_bisection,
}


def check_placement_engine(engine: str) -> str:
    """Validate a placement-engine name, returning it for chaining."""
    if engine not in PLACEMENT_ENGINES:
        raise MappingError(
            f"unknown placement engine {engine!r}; expected one of {PLACEMENT_ENGINES}"
        )
    return engine


def _alive_slots(
    rows: int, cols: int, dead: frozenset[tuple[int, int]], row_lo: int = 0, col_lo: int = 0
) -> list[TileSlot]:
    """Alive slots of the ``[row_lo, rows) × [col_lo, cols)`` window, row-major."""
    return [
        TileSlot(r, c)
        for r in range(row_lo, rows)
        for c in range(col_lo, cols)
        if (r, c) not in dead
    ]


def _check_fits(
    num_qubits: int, rows: int, cols: int, dead: frozenset[tuple[int, int]]
) -> list[TileSlot]:
    """The alive slots of the window, raising when the circuit cannot fit.

    A window too small even when pristine is a :class:`MappingError`
    (caller's geometry is wrong); a window made too small by dead tiles is a
    :class:`ChipError` (the chip's defects are the problem).
    """
    if rows * cols < num_qubits:
        raise MappingError(f"tile array {rows}x{cols} too small for {num_qubits} qubits")
    alive = _alive_slots(rows, cols, dead)
    if len(alive) < num_qubits:
        raise ChipError(
            f"tile array {rows}x{cols} has only {len(alive)} alive slots "
            f"({rows * cols - len(alive)} dead) but the circuit needs {num_qubits} qubits"
        )
    return alive


@dataclass(frozen=True)
class Placement:
    """An assignment of logical qubits to tile slots."""

    qubit_to_slot: dict[int, TileSlot]

    def slot_of(self, qubit: int) -> TileSlot:
        """Tile slot hosting ``qubit``."""
        try:
            return self.qubit_to_slot[qubit]
        except KeyError as exc:
            raise MappingError(f"qubit {qubit} has no tile assignment") from exc

    def slots(self) -> set[TileSlot]:
        """All occupied slots."""
        return set(self.qubit_to_slot.values())

    def num_qubits(self) -> int:
        """Number of placed qubits."""
        return len(self.qubit_to_slot)

    def validate(self, chip: Chip) -> None:
        """Raise :class:`MappingError` if the placement is inconsistent with ``chip``."""
        slots = list(self.qubit_to_slot.values())
        if len(set(slots)) != len(slots):
            raise MappingError("two qubits share a tile slot")
        for slot in slots:
            if not chip.contains_slot(slot):
                raise MappingError(f"slot {slot} outside the {chip.tile_rows}x{chip.tile_cols} tile array")
            if chip.is_dead_slot(slot):
                raise MappingError(f"slot {slot} is a dead tile on this chip")


def communication_cost(graph: CommunicationGraph, placement: Placement, distance=None) -> float:
    """The paper's mapping cost function ``f = Σ γ_ij · l(T_i, T_j)``.

    ``distance`` is the slot metric; omitted, it is Manhattan distance (the
    paper's ``l_ij`` on the square lattice).  Graph chips pass
    :meth:`~repro.chip.chip.Chip.slot_distance`, the BFS hop metric —
    identical to Manhattan on square chips, so callers may thread it
    unconditionally.
    """
    if distance is None:
        distance = TileSlot.manhattan_distance
    total = 0.0
    for a, b, weight in graph.edges():
        total += weight * distance(placement.slot_of(a), placement.slot_of(b))
    return total


def _weights_from_graph(graph: CommunicationGraph) -> WeightMap:
    return {(a, b): float(w) for a, b, w in graph.edges()}


def _restrict(weights: WeightMap, side: set[int]) -> WeightMap:
    """The edges of ``weights`` inside ``side``, in the parent map's order.

    Each child region bisects only its own edges, so the cores' adjacency
    and quantization builds cost O(E_region) instead of O(E_total); keeping
    the parent's iteration order keeps every float summation order, and
    with it the placement, unchanged.
    """
    return {(a, b): w for (a, b), w in weights.items() if a in side and b in side}


# -------------------------------------------------------------------- placements
def recursive_bisection_placement(
    graph: CommunicationGraph,
    rows: int,
    cols: int,
    seed: int | None = None,
    dead: frozenset[tuple[int, int]] = NO_DEAD_TILES,
    engine: str = "reference",
) -> Placement:
    """Place all qubits of ``graph`` into an ``rows × cols`` slot rectangle.

    Slots listed in ``dead`` are never assigned; region capacities count
    alive slots only, so defective chips bisect correctly.  ``engine``
    selects the bisection core: the classic KL ``reference`` or the
    multilevel coarsen/FM ``fast`` core (same size contract, near-linear
    cost — see :data:`PLACEMENT_ENGINES`).
    """
    _check_fits(graph.num_qubits, rows, cols, dead)
    bisect = _BISECTION_CORES[check_placement_engine(engine)]
    weights = _weights_from_graph(graph)
    qubits = list(range(graph.num_qubits))
    assignment: dict[int, TileSlot] = {}
    _place_region(qubits, weights, 0, rows, 0, cols, assignment, random.Random(seed), dead, bisect)
    return Placement(assignment)


def alive_in_window(
    row_lo: int, row_hi: int, col_lo: int, col_hi: int, dead: frozenset[tuple[int, int]]
) -> int:
    """Number of non-dead tile slots in the half-open window ``[lo, hi)``."""
    total = (row_hi - row_lo) * (col_hi - col_lo)
    if not dead:
        return total
    return total - sum(1 for r, c in dead if row_lo <= r < row_hi and col_lo <= c < col_hi)


def _place_region(
    qubits: list[int],
    weights: WeightMap,
    row_lo: int,
    row_hi: int,
    col_lo: int,
    col_hi: int,
    assignment: dict[int, TileSlot],
    rng: random.Random,
    dead: frozenset[tuple[int, int]] = NO_DEAD_TILES,
    bisect=kernighan_lin_bisection,
) -> None:
    rows = row_hi - row_lo
    cols = col_hi - col_lo
    if not qubits:
        return
    if len(qubits) == 1:
        for r in range(row_lo, row_hi):
            for c in range(col_lo, col_hi):
                if (r, c) not in dead:
                    assignment[qubits[0]] = TileSlot(r, c)
                    return
        raise MappingError("no alive slot in a placement region")  # pragma: no cover
    if rows * cols == 1:
        raise MappingError("more qubits than slots in a placement region")  # pragma: no cover
    # Split the longer dimension.
    if cols >= rows:
        split = (col_lo + col_hi) // 2
        regions = ((row_lo, row_hi, col_lo, split), (row_lo, row_hi, split, col_hi))
    else:
        split = (row_lo + row_hi) // 2
        regions = ((row_lo, split, col_lo, col_hi), (split, row_hi, col_lo, col_hi))
    slots_first = alive_in_window(*regions[0], dead)
    size_first = min(len(qubits), slots_first)
    size_second = len(qubits) - size_first
    if size_first == 0 or size_second == 0:
        # Everything fits in one half; recurse into the half with enough slots.
        target = regions[0] if size_first > 0 else regions[1]
        _place_region(qubits, weights, *target, assignment, rng, dead, bisect)
        return
    side_a, side_b = bisect(qubits, weights, seed=rng.randrange(1 << 30), size_a=size_first)
    for side, region in ((side_a, regions[0]), (side_b, regions[1])):
        _place_region(
            sorted(side), _restrict(weights, side), *region, assignment, rng, dead, bisect
        )


def trivial_snake_placement(
    num_qubits: int,
    rows: int,
    cols: int,
    dead: frozenset[tuple[int, int]] = NO_DEAD_TILES,
) -> Placement:
    """The EDPCI "trivial" mapping: fill rows alternately left-to-right and right-to-left.

    Dead slots are skipped in snake order, so qubits stay in boustrophedon
    sequence over the alive slots.
    """
    _check_fits(num_qubits, rows, cols, dead)
    assignment: dict[int, TileSlot] = {}
    qubit = 0
    for row in range(rows):
        columns = range(cols) if row % 2 == 0 else range(cols - 1, -1, -1)
        for col in columns:
            if qubit >= num_qubits:
                return Placement(assignment)
            if (row, col) in dead:
                continue
            assignment[qubit] = TileSlot(row, col)
            qubit += 1
    return Placement(assignment)


def random_placement(
    num_qubits: int,
    rows: int,
    cols: int,
    seed: int | None = None,
    dead: frozenset[tuple[int, int]] = NO_DEAD_TILES,
) -> Placement:
    """Uniformly random assignment of qubits to distinct alive slots."""
    slots = _check_fits(num_qubits, rows, cols, dead)
    rng = random.Random(seed)
    slots = list(slots)
    rng.shuffle(slots)
    return Placement({qubit: slots[qubit] for qubit in range(num_qubits)})


def canonicalize_eigenvector_sign(vector: np.ndarray) -> np.ndarray:
    """Fix an eigenvector's arbitrary global sign: first nonzero entry > 0.

    ``v`` and ``-v`` are equally valid eigenvectors and which one LAPACK
    returns depends on the BLAS build, so any consumer that orders by raw
    component values (spectral placement does) would be platform-dependent
    without this.  Entries within ``1e-12`` of zero are treated as zero so
    rounding noise cannot flip the canonical choice.
    """
    for component in vector:
        if abs(component) > 1e-12:
            return -vector if component < 0 else vector
    return vector


def spectral_placement(
    graph: CommunicationGraph,
    rows: int,
    cols: int,
    dead: frozenset[tuple[int, int]] = NO_DEAD_TILES,
) -> Placement:
    """Spectral placement: order qubits by the Fiedler vector, fill the grid snake-wise.

    A lightweight alternative to recursive bisection used in ablations; it
    tends to keep strongly connected qubits in adjacent grid positions.
    """
    n = graph.num_qubits
    _check_fits(n, rows, cols, dead)
    laplacian = np.zeros((n, n), dtype=float)
    for a, b, w in graph.edges():
        laplacian[a, b] -= w
        laplacian[b, a] -= w
        laplacian[a, a] += w
        laplacian[b, b] += w
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    # The Fiedler vector is the eigenvector of the second-smallest eigenvalue.
    order = np.argsort(eigenvalues)
    fiedler = eigenvectors[:, order[1]] if n > 1 else np.zeros(n)
    fiedler = canonicalize_eigenvector_sign(fiedler)
    ranking = sorted(range(n), key=lambda q: (fiedler[q], q))
    snake = trivial_snake_placement(n, rows, cols, dead=dead)
    return Placement({qubit: snake.slot_of(position) for position, qubit in enumerate(ranking)})


# --------------------------------------------------------- graph-chip placements
def _graph_ordered_slots(chip: Chip) -> list[TileSlot]:
    """Alive slots of a graph chip in spatial order (y, then x, then node id).

    The graph analogue of row-major order: snake/spectral fills walk this
    order, and bisection splits partition it along the wider coordinate axis.
    """
    coords = chip.tile_graph.coords
    return sorted(
        chip.alive_tile_slots(),
        key=lambda slot: (coords[slot.row][1], coords[slot.row][0], slot.row),
    )


def _check_fits_graph(num_qubits: int, chip: Chip) -> list[TileSlot]:
    """Alive slots of the graph chip, raising when the circuit cannot fit."""
    if chip.num_tile_slots < num_qubits:
        raise MappingError(
            f"tile graph with {chip.num_tile_slots} tiles too small for {num_qubits} qubits"
        )
    alive = _graph_ordered_slots(chip)
    if len(alive) < num_qubits:
        raise ChipError(
            f"tile graph has only {len(alive)} alive tiles "
            f"({chip.num_tile_slots - len(alive)} dead) but the circuit needs "
            f"{num_qubits} qubits"
        )
    return alive


def _split_slots(slots: list[TileSlot], coords) -> tuple[list[TileSlot], list[TileSlot]]:
    """Split a slot region in two halves along its wider coordinate axis."""
    xs = [coords[s.row][0] for s in slots]
    ys = [coords[s.row][1] for s in slots]
    if max(xs) - min(xs) >= max(ys) - min(ys):
        ordered = sorted(slots, key=lambda s: (coords[s.row][0], coords[s.row][1], s.row))
    else:
        ordered = sorted(slots, key=lambda s: (coords[s.row][1], coords[s.row][0], s.row))
    half = (len(ordered) + 1) // 2
    return ordered[:half], ordered[half:]


def _place_graph_region(
    qubits: list[int],
    weights: WeightMap,
    slots: list[TileSlot],
    assignment: dict[int, TileSlot],
    rng: random.Random,
    coords,
    bisect,
) -> None:
    if not qubits:
        return
    if len(qubits) == 1:
        assignment[qubits[0]] = min(slots, key=lambda s: s.row)
        return
    if len(slots) < len(qubits):  # pragma: no cover - guarded by _check_fits_graph
        raise MappingError("more qubits than slots in a placement region")
    first, second = _split_slots(slots, coords)
    size_first = min(len(qubits), len(first))
    size_second = len(qubits) - size_first
    if size_second == 0 and len(first) < len(slots):
        # Everything fits in the first half; shrink the region and re-split.
        _place_graph_region(qubits, weights, first, assignment, rng, coords, bisect)
        return
    side_a, side_b = bisect(qubits, weights, seed=rng.randrange(1 << 30), size_a=size_first)
    for side, region in ((side_a, first), (side_b, second)):
        _place_graph_region(
            sorted(side), _restrict(weights, side), region, assignment, rng, coords, bisect
        )


def graph_recursive_bisection_placement(
    graph: CommunicationGraph,
    chip: Chip,
    seed: int | None = None,
    engine: str = "reference",
) -> Placement:
    """Recursive-bisection placement onto a graph chip's alive tiles.

    The communication graph is bisected exactly as on square chips (same
    KL/FM cores), while the slot region splits along the wider coordinate
    axis of the tile graph's layout instead of a grid window — heavily
    communicating qubits still land in spatially (and therefore, for the
    built-in geometries, hop-wise) nearby tiles.
    """
    alive = _check_fits_graph(graph.num_qubits, chip)
    bisect = _BISECTION_CORES[check_placement_engine(engine)]
    weights = _weights_from_graph(graph)
    assignment: dict[int, TileSlot] = {}
    _place_graph_region(
        list(range(graph.num_qubits)),
        weights,
        alive,
        assignment,
        random.Random(seed),
        chip.tile_graph.coords,
        bisect,
    )
    return Placement(assignment)


def graph_snake_placement(num_qubits: int, chip: Chip) -> Placement:
    """The trivial fill for graph chips: qubits in spatial slot order."""
    alive = _check_fits_graph(num_qubits, chip)
    return Placement({qubit: alive[qubit] for qubit in range(num_qubits)})


def graph_random_placement(num_qubits: int, chip: Chip, seed: int | None = None) -> Placement:
    """Uniformly random assignment of qubits to distinct alive graph tiles."""
    alive = _check_fits_graph(num_qubits, chip)
    rng = random.Random(seed)
    rng.shuffle(alive)
    return Placement({qubit: alive[qubit] for qubit in range(num_qubits)})


def graph_spectral_placement(graph: CommunicationGraph, chip: Chip) -> Placement:
    """Spectral placement for graph chips: Fiedler order over spatial slot order."""
    n = graph.num_qubits
    _check_fits_graph(n, chip)
    laplacian = np.zeros((n, n), dtype=float)
    for a, b, w in graph.edges():
        laplacian[a, b] -= w
        laplacian[b, a] -= w
        laplacian[a, a] += w
        laplacian[b, b] += w
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    order = np.argsort(eigenvalues)
    fiedler = eigenvectors[:, order[1]] if n > 1 else np.zeros(n)
    fiedler = canonicalize_eigenvector_sign(fiedler)
    ranking = sorted(range(n), key=lambda q: (fiedler[q], q))
    snake = graph_snake_placement(n, chip)
    return Placement({qubit: snake.slot_of(position) for position, qubit in enumerate(ranking)})


def graph_best_placement(
    graph: CommunicationGraph,
    chip: Chip,
    attempts: int = 4,
    seed: int = 0,
    engine: str = "reference",
) -> Placement:
    """Seeded multi-attempt bisection for graph chips, scored by hop distance."""
    best: Placement | None = None
    best_cost = float("inf")
    for attempt in range(max(1, attempts)):
        placement = graph_recursive_bisection_placement(
            graph, chip, seed=seed + attempt, engine=engine
        )
        cost = communication_cost(graph, placement, distance=chip.slot_distance)
        if cost < best_cost:
            best, best_cost = placement, cost
    assert best is not None
    return best


def best_placement(
    graph: CommunicationGraph,
    rows: int,
    cols: int,
    attempts: int = 4,
    seed: int = 0,
    dead: frozenset[tuple[int, int]] = NO_DEAD_TILES,
    engine: str = "reference",
) -> Placement:
    """Run several seeded recursive bisections and keep the cheapest placement.

    Mirrors the paper: "Due to the stochastic steps in the mapping generation,
    we generate multiple mappings and select the one with minimal
    communication cost."
    """
    best: Placement | None = None
    best_cost = float("inf")
    for attempt in range(max(1, attempts)):
        placement = recursive_bisection_placement(
            graph, rows, cols, seed=seed + attempt, dead=dead, engine=engine
        )
        cost = communication_cost(graph, placement)
        if cost < best_cost:
            best, best_cost = placement, cost
    assert best is not None
    return best
