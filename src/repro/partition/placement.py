"""Recursive-bisection placement of logical qubits onto tile slots.

This is the METIS-substitute used by the *mapping establishing* step of
Ecmas: the communication graph is recursively bisected (Kernighan–Lin) while
the target region of tile slots is split alongside it, so heavily
communicating qubits land in nearby tiles.  The quality measure is the
paper's communication cost ``f = Σ γ_ij · l_ij`` (CNOT count times slot
distance), exposed as :func:`communication_cost`.

Every placement works over a :class:`SlotDomain`, the one value that holds
a chip's placement geometry.  It has two constructors:

* :func:`grid_domain` — a ``rows × cols`` window of the square tile array:
  row-major slots, boustrophedon fill, regions split at the midpoint of
  their longer side, capacities counting alive slots, Manhattan distance;
* :func:`graph_domain` — a graph chip's tiles: slots in spatial order,
  regions split along their wider coordinate axis, BFS hop distance
  (:meth:`~repro.chip.chip.Chip.slot_distance`).

The bisections of one placement read one
:data:`~repro.partition.kl.WeightRows` adjacency (:func:`graph_rows`), built
once per compile and shared by every attempt; each region passes its
id-sorted qubit list into it and gets id-sorted side lists back.

Over either domain the module provides :func:`best_placement` (seeded
multi-attempt :func:`recursive_bisection_placement`),
:func:`snake_placement` (the trivial layout EDPCI uses),
:func:`spectral_placement` (a numpy-based spectral alternative used by the
ablation benches) and :func:`random_placement` (the random baseline).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.chip.chip import Chip, TileSlot
from repro.circuits.comm_graph import CommunicationGraph
from repro.errors import ChipError, MappingError
from repro.partition.coarsen import multilevel_bisect
from repro.partition.kl import WeightRows, check_weights, kl_bisect, weight_rows
from repro.profiling import PlacementCounters

if TYPE_CHECKING:
    import numpy as np

#: Dead tile slots as ``(row, col)`` pairs; the empty set means a pristine chip.
NO_DEAD_TILES: frozenset[tuple[int, int]] = frozenset()

#: Placement engines: ``reference`` = classic KL recursive bisection (the
#: golden baseline), ``fast`` = multilevel coarsen/FM bisection.
PLACEMENT_ENGINES: tuple[str, ...] = ("reference", "fast")

#: Bisection core backing each placement engine:
#: ``core(rows, vertices, size_a, seed, counters) -> (side_a, side_b)`` over
#: id-sorted vertex lists into the shared rows.
_BISECTION_CORES = {
    "reference": kl_bisect,
    "fast": multilevel_bisect,
}


def check_placement_engine(engine: str) -> str:
    """Validate a placement-engine name, returning it for chaining."""
    if engine not in PLACEMENT_ENGINES:
        raise MappingError(
            f"unknown placement engine {engine!r}; expected one of {PLACEMENT_ENGINES}"
        )
    return engine


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
    return _edges_cost(graph.edges(), placement, distance or TileSlot.manhattan_distance)


def _edges_cost(
    edges: tuple[tuple[int, int, int], ...],
    placement: Placement,
    distance: Callable[[TileSlot, TileSlot], int],
) -> float:
    """:func:`communication_cost` over ``graph.edges()`` already in hand."""
    slot_of = placement.slot_of
    total = 0.0
    for a, b, weight in edges:
        total += weight * distance(slot_of(a), slot_of(b))
    return total


def graph_rows(graph: CommunicationGraph) -> WeightRows:
    """The communication graph's :data:`~repro.partition.kl.WeightRows`, checked once.

    Rows follow ``graph.edges()`` order and keep the CNOT counts as ``int``;
    every bisection of every placement attempt of one compile reads them.
    """
    edges = graph.edges()
    check_weights(edges)
    return weight_rows(range(graph.num_qubits), edges)


# ------------------------------------------------------------------ slot domains
#: A placement region: a grid window ``(row_lo, row_hi, col_lo, col_hi)`` or
#: a tuple of graph-chip slots, opaque outside its domain's callables.
Region = Any


@dataclass(frozen=True, eq=False)
class SlotDomain:
    """The tile slots a placement may use, and how to split them into regions.

    Build one with :func:`grid_domain` or :func:`graph_domain`; every
    placement in this module runs unchanged over either.
    """

    #: Names the slot set in fitting errors (``"tile array 3x4"``).
    label: str
    #: Every slot, dead ones included.
    num_slots: int
    #: Alive slots in canonical order; random placement shuffles these.
    slots: tuple[TileSlot, ...]
    #: Alive slots in fill order; snake and spectral placement walk these.
    fill_order: tuple[TileSlot, ...]
    #: The region covering every slot, where bisection starts.
    root: Region
    #: Splits a region of at least two slots into two non-empty halves.
    split: Callable[[Region], tuple[Region, Region]]
    #: Number of alive slots in a region.
    capacity: Callable[[Region], int]
    #: The slot a lone qubit takes in a region.
    first: Callable[[Region], TileSlot]
    #: The slot metric ``l_ij`` of the communication cost.
    distance: Callable[[TileSlot, TileSlot], int]

    def check_fits(self, num_qubits: int) -> None:
        """Raise when ``num_qubits`` cannot fit the domain's alive slots.

        A domain too small even when pristine is a :class:`MappingError`
        (the caller's geometry is wrong); one made too small by dead tiles is
        a :class:`ChipError` (the chip's defects are the problem).
        """
        if self.num_slots < num_qubits:
            raise MappingError(f"{self.label} too small for {num_qubits} qubits")
        if len(self.slots) < num_qubits:
            raise ChipError(
                f"{self.label} has only {len(self.slots)} alive slots "
                f"({self.num_slots - len(self.slots)} dead) but the circuit needs "
                f"{num_qubits} qubits"
            )


def alive_in_window(
    row_lo: int, row_hi: int, col_lo: int, col_hi: int, dead: frozenset[tuple[int, int]]
) -> int:
    """Number of non-dead tile slots in the half-open window ``[lo, hi)``."""
    total = (row_hi - row_lo) * (col_hi - col_lo)
    if not dead:
        return total
    return total - sum(1 for r, c in dead if row_lo <= r < row_hi and col_lo <= c < col_hi)


def grid_domain(
    rows: int, cols: int, dead: frozenset[tuple[int, int]] = NO_DEAD_TILES
) -> SlotDomain:
    """The ``rows × cols`` window at the origin of a square tile array.

    Regions are windows split at the midpoint of their longer side (columns
    on a tie); a region's capacity counts its alive slots, so defective chips
    bisect correctly.  Slots listed in ``dead`` are never assigned.
    """

    def window_slots(row_lo, row_hi, col_lo, col_hi):
        return (
            TileSlot(r, c)
            for r in range(row_lo, row_hi)
            for c in range(col_lo, col_hi)
            if (r, c) not in dead
        )

    def split(window):
        row_lo, row_hi, col_lo, col_hi = window
        if col_hi - col_lo >= row_hi - row_lo:
            mid = (col_lo + col_hi) // 2
            return (row_lo, row_hi, col_lo, mid), (row_lo, row_hi, mid, col_hi)
        mid = (row_lo + row_hi) // 2
        return (row_lo, mid, col_lo, col_hi), (mid, row_hi, col_lo, col_hi)

    snake = (
        TileSlot(r, c)
        for r in range(rows)
        for c in (range(cols) if r % 2 == 0 else range(cols - 1, -1, -1))
        if (r, c) not in dead
    )
    return SlotDomain(
        label=f"tile array {rows}x{cols}",
        num_slots=rows * cols,
        slots=tuple(window_slots(0, rows, 0, cols)),
        fill_order=tuple(snake),
        root=(0, rows, 0, cols),
        split=split,
        capacity=lambda window: alive_in_window(*window, dead),
        first=lambda window: next(window_slots(*window)),
        distance=TileSlot.manhattan_distance,
    )


def graph_domain(chip: Chip) -> SlotDomain:
    """The tiles of a graph chip, in spatial order (y, then x, then node id).

    Regions are slot tuples split in half along their wider coordinate
    axis, so heavily communicating qubits land in spatially (and, for the
    built-in geometries, hop-wise) nearby tiles.
    """
    coords = chip.tile_graph.coords

    def by_x(slot):
        return coords[slot.row][0], coords[slot.row][1], slot.row

    def by_y(slot):
        return coords[slot.row][1], coords[slot.row][0], slot.row

    def split(slots):
        xs = [coords[s.row][0] for s in slots]
        ys = [coords[s.row][1] for s in slots]
        ordered = sorted(slots, key=by_x if max(xs) - min(xs) >= max(ys) - min(ys) else by_y)
        half = (len(ordered) + 1) // 2
        return ordered[:half], ordered[half:]

    spatial = tuple(sorted(chip.alive_tile_slots(), key=by_y))
    return SlotDomain(
        label=f"tile graph with {chip.num_tile_slots} tiles",
        num_slots=chip.num_tile_slots,
        slots=spatial,
        fill_order=spatial,
        root=spatial,
        split=split,
        capacity=len,
        first=lambda slots: min(slots, key=lambda s: s.row),
        distance=chip.slot_distance,
    )


# -------------------------------------------------------------------- placements
def recursive_bisection_placement(
    graph: CommunicationGraph,
    domain: SlotDomain,
    seed: int | None = None,
    engine: str = "reference",
    counters: PlacementCounters | None = None,
) -> Placement:
    """Place all qubits of ``graph`` into the alive slots of ``domain``.

    ``engine`` selects the bisection core: the classic KL ``reference`` or
    the multilevel coarsen/FM ``fast`` core (same size contract, near-linear
    cost — see :data:`PLACEMENT_ENGINES`).  ``counters``, when given,
    accumulates the placement's work.
    """
    return _bisection_placement(graph_rows(graph), graph, domain, seed, engine, counters)


def _bisection_placement(
    rows: WeightRows,
    graph: CommunicationGraph,
    domain: SlotDomain,
    seed: int | None,
    engine: str,
    counters: PlacementCounters | None,
) -> Placement:
    domain.check_fits(graph.num_qubits)
    bisect = _BISECTION_CORES[check_placement_engine(engine)]
    counters = counters if counters is not None else PlacementCounters()
    counters.attempts += 1
    assignment: dict[int, TileSlot] = {}
    rng = random.Random(seed)
    _place_region(
        rows, list(range(graph.num_qubits)), domain.root, domain, assignment, rng, bisect, counters
    )
    return Placement(assignment)


def _place_region(
    rows: WeightRows,
    qubits: list[int],
    region: Region,
    domain: SlotDomain,
    assignment: dict[int, TileSlot],
    rng: random.Random,
    bisect,
    counters: PlacementCounters,
) -> None:
    """Bisect the id-sorted ``qubits`` alongside ``region``; needs ``capacity(region) >= len(qubits)``."""
    if not qubits:
        return
    counters.regions += 1
    if len(qubits) == 1:
        assignment[qubits[0]] = domain.first(region)
        return
    first, second = domain.split(region)
    size_first = min(len(qubits), domain.capacity(first))
    if size_first in (0, len(qubits)):
        # Everything fits in one half; recurse into the half with enough slots.
        _place_region(
            rows, qubits, first if size_first else second, domain, assignment, rng, bisect,
            counters,
        )
        return
    counters.bisections += 1
    side_a, side_b = bisect(rows, qubits, size_first, rng.randrange(1 << 30), counters)
    _place_region(rows, side_a, first, domain, assignment, rng, bisect, counters)
    _place_region(rows, side_b, second, domain, assignment, rng, bisect, counters)


def best_placement(
    graph: CommunicationGraph,
    domain: SlotDomain,
    attempts: int = 4,
    seed: int = 0,
    engine: str = "reference",
    counters: PlacementCounters | None = None,
) -> Placement:
    """Run several seeded recursive bisections and keep the cheapest placement.

    Mirrors the paper: "Due to the stochastic steps in the mapping generation,
    we generate multiple mappings and select the one with minimal
    communication cost."  Costs use the domain's slot metric.  Every attempt
    reads one set of :func:`graph_rows`; ``counters``, when given,
    accumulates the work of every attempt.
    """
    rows = graph_rows(graph)
    edges = graph.edges()
    best: Placement | None = None
    best_cost = float("inf")
    for attempt in range(max(1, attempts)):
        placement = _bisection_placement(rows, graph, domain, seed + attempt, engine, counters)
        cost = _edges_cost(edges, placement, domain.distance)
        if cost < best_cost:
            best, best_cost = placement, cost
    assert best is not None
    return best


def snake_placement(num_qubits: int, domain: SlotDomain) -> Placement:
    """The EDPCI "trivial" mapping: qubits in the domain's fill order.

    On a grid that is boustrophedon order (rows alternately left-to-right
    and right-to-left), skipping dead slots.
    """
    domain.check_fits(num_qubits)
    return Placement({qubit: domain.fill_order[qubit] for qubit in range(num_qubits)})


def random_placement(num_qubits: int, domain: SlotDomain, seed: int | None = None) -> Placement:
    """Uniformly random assignment of qubits to distinct alive slots."""
    domain.check_fits(num_qubits)
    slots = list(domain.slots)
    random.Random(seed).shuffle(slots)
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


def spectral_placement(graph: CommunicationGraph, domain: SlotDomain) -> Placement:
    """Spectral placement: order qubits by the Fiedler vector, then fill snake-wise.

    A lightweight alternative to recursive bisection used in ablations; it
    tends to keep strongly connected qubits in adjacent fill positions.
    numpy is imported here, on the first call, so the other placements and
    ``import repro`` never load it.
    """
    import numpy as np

    n = graph.num_qubits
    domain.check_fits(n)
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
    return Placement({qubit: domain.fill_order[position] for position, qubit in enumerate(ranking)})
