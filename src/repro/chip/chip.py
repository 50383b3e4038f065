"""The :class:`Chip` model: a 2-D tile array with bandwidth-annotated channels.

A chip ``L_{l×l}`` is summarised by:

* the surface-code model (double defect / lattice surgery) and code distance,
* the tile array dimensions (``tile_rows × tile_cols`` logical tile slots),
* one *horizontal corridor* between/around each tile row (``tile_rows + 1``)
  and one *vertical corridor* between/around each tile column
  (``tile_cols + 1``), each with an integer bandwidth (number of lanes),
* the physical side length, from which the per-axis channel-width budget is
  derived (see :mod:`repro.chip.geometry`).

The corridors carry the communication; their bandwidths are exactly what the
*bandwidth adjusting* step of Ecmas redistributes (within the physical
budget), and the chip bandwidth of the paper is the minimum over corridors.

Graph chips
-----------
A chip may instead carry an explicit :class:`~repro.chip.tile_graph.TileGraph`
(heavy-hex, degree-3, sparse layouts — see :mod:`repro.chip.tile_graph`).
Graph chips address tile slot ``i`` as ``TileSlot(i, 0)`` — ``tile_rows`` is
the node count and ``tile_cols`` is 1 — and replace the corridor vectors with
per-edge bandwidths: segments are keyed ``("e", a, b)``, distances are BFS
hops (:meth:`Chip.slot_distance`), and bandwidth adjusting redistributes lanes
per edge under per-node width budgets (:meth:`Chip.with_edge_bandwidths`).
Square chips keep the paper's corridor representation unchanged.

Placement does not fork on the two: it runs over a *slot domain* —
:func:`~repro.partition.placement.grid_domain` for a window of the square
tile array, :func:`~repro.partition.placement.graph_domain` for a graph chip
— and bandwidth adjusting reads one corridor-load map keyed by
:meth:`~repro.chip.routing_graph.RoutingGraph.corridor_of`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from repro.chip import geometry
from repro.chip.defects import NO_DEFECTS, DefectSpec, SegmentKey
from repro.chip.geometry import SurfaceCodeModel
from repro.chip.tile_graph import TileGraph
from repro.errors import ChipError


@dataclass(frozen=True)
class TileSlot:
    """A position in the logical tile array (row-major)."""

    row: int
    col: int

    def manhattan_distance(self, other: "TileSlot") -> int:
        """Grid distance between two tile slots."""
        return abs(self.row - other.row) + abs(self.col - other.col)


@dataclass(frozen=True)
class Chip:
    """An immutable chip description.

    Use the factory class methods (:meth:`minimum_viable`, :meth:`four_x`,
    :meth:`for_bandwidth`, :meth:`sufficient`) rather than the constructor;
    they perform the physical-qubit accounting of the paper.
    """

    model: SurfaceCodeModel
    code_distance: int
    tile_rows: int
    tile_cols: int
    h_bandwidths: tuple[int, ...]
    v_bandwidths: tuple[int, ...]
    side: int
    #: Fabrication defects: dead tiles and degraded / disabled corridor
    #: segments.  Defaults to the pristine chip; see :mod:`repro.chip.defects`.
    defects: DefectSpec = NO_DEFECTS
    #: Explicit tile-graph geometry, or ``None`` for the square lattice.
    #: Graph chips set ``tile_rows = num_nodes``, ``tile_cols = 1`` and leave
    #: the corridor vectors empty; build them with :meth:`from_tile_graph`.
    tile_graph: TileGraph | None = None

    def __post_init__(self) -> None:
        if self.tile_graph is not None:
            if self.tile_rows != self.tile_graph.num_nodes or self.tile_cols != 1:
                raise ChipError(
                    f"graph chip must have tile_rows={self.tile_graph.num_nodes} and "
                    f"tile_cols=1, got {self.tile_rows}x{self.tile_cols}"
                )
            if self.h_bandwidths or self.v_bandwidths:
                raise ChipError(
                    "graph chip carries bandwidths on its tile-graph edges; "
                    "corridor vectors must be empty"
                )
            self.defects.validate_for_graph(self.tile_graph)
            return
        if self.tile_rows < 1 or self.tile_cols < 1:
            raise ChipError("chip needs at least a 1x1 tile array")
        if len(self.h_bandwidths) != self.tile_rows + 1:
            raise ChipError(
                f"expected {self.tile_rows + 1} horizontal corridors, got {len(self.h_bandwidths)}"
            )
        if len(self.v_bandwidths) != self.tile_cols + 1:
            raise ChipError(
                f"expected {self.tile_cols + 1} vertical corridors, got {len(self.v_bandwidths)}"
            )
        if any(b < 1 for b in self.h_bandwidths + self.v_bandwidths):
            raise ChipError("every corridor must have bandwidth at least 1")
        self.defects.validate_for(self.tile_rows, self.tile_cols)

    # ------------------------------------------------------------- factories
    @classmethod
    def minimum_viable(cls, model: SurfaceCodeModel, num_qubits: int, code_distance: int) -> "Chip":
        """The paper's minimum viable chip for ``num_qubits`` logical qubits."""
        side = geometry.minimum_viable_side(model, num_qubits, code_distance)
        return cls.from_side(model, num_qubits, code_distance, side)

    @classmethod
    def four_x(cls, model: SurfaceCodeModel, num_qubits: int, code_distance: int) -> "Chip":
        """The paper's "4x" resource configuration."""
        side = geometry.four_x_side(model, num_qubits, code_distance)
        return cls.from_side(model, num_qubits, code_distance, side)

    @classmethod
    def for_bandwidth(
        cls, model: SurfaceCodeModel, num_qubits: int, code_distance: int, bandwidth: int
    ) -> "Chip":
        """Smallest chip whose every corridor has at least ``bandwidth`` lanes."""
        side = geometry.side_for_bandwidth(model, num_qubits, code_distance, bandwidth)
        chip = cls.from_side(model, num_qubits, code_distance, side)
        if chip.bandwidth < bandwidth:
            # The uniform accounting rounds down; bump the side until satisfied.
            while chip.bandwidth < bandwidth:
                side += code_distance
                chip = cls.from_side(model, num_qubits, code_distance, side)
        return chip

    @classmethod
    def sufficient(
        cls, model: SurfaceCodeModel, num_qubits: int, code_distance: int, parallelism: int
    ) -> "Chip":
        """A chip whose communication capacity covers the circuit parallelism.

        This is the configuration Ecmas-ReSu assumes (Section IV-B2): the
        bandwidth ``b`` satisfies ``⌊(b-1)/2⌋ + 3 ≥ PM``.
        """
        bandwidth = geometry.sufficient_bandwidth(parallelism)
        return cls.for_bandwidth(model, num_qubits, code_distance, bandwidth)

    @classmethod
    def from_side(
        cls, model: SurfaceCodeModel, num_qubits: int, code_distance: int, side: int
    ) -> "Chip":
        """Build a chip of physical side ``side`` hosting ``num_qubits`` logical qubits."""
        tiles_per_side = int(math.ceil(math.sqrt(num_qubits)))
        bandwidths = geometry.uniform_bandwidths(model, code_distance, tiles_per_side, side)
        return cls(
            model=model,
            code_distance=code_distance,
            tile_rows=tiles_per_side,
            tile_cols=tiles_per_side,
            h_bandwidths=tuple(bandwidths),
            v_bandwidths=tuple(bandwidths),
            side=side,
        )

    @classmethod
    def from_tile_graph(
        cls,
        model: SurfaceCodeModel,
        code_distance: int,
        graph: TileGraph,
        defects: DefectSpec = NO_DEFECTS,
    ) -> "Chip":
        """Build a chip over an explicit tile-graph geometry.

        The physical ``side`` is an accounting figure (physical-qubit counts
        in reports): the side of the smallest square that fits the graph's
        tiles plus channel width for the widest edge, mirroring the square
        chips' accounting.
        """
        lane = geometry.lane_width(model, code_distance)
        core = geometry.tile_side(model, code_distance)
        tiles_per_side = int(math.ceil(math.sqrt(graph.num_nodes)))
        widest = max(graph.bandwidths) if graph.bandwidths else 1
        side = tiles_per_side * core + int(math.ceil((tiles_per_side + 1) * widest * lane))
        return cls(
            model=model,
            code_distance=code_distance,
            tile_rows=graph.num_nodes,
            tile_cols=1,
            h_bandwidths=(),
            v_bandwidths=(),
            side=side,
            defects=defects,
            tile_graph=graph,
        )

    @classmethod
    def with_tile_array(
        cls,
        model: SurfaceCodeModel,
        code_distance: int,
        tile_rows: int,
        tile_cols: int,
        bandwidth: int = 1,
    ) -> "Chip":
        """Explicit tile-array constructor with a uniform bandwidth (for tests)."""
        lane = geometry.lane_width(model, code_distance)
        core = geometry.tile_side(model, code_distance)
        side = max(tile_rows, tile_cols) * core + int(
            math.ceil((max(tile_rows, tile_cols) + 1) * bandwidth * lane)
        )
        return cls(
            model=model,
            code_distance=code_distance,
            tile_rows=tile_rows,
            tile_cols=tile_cols,
            h_bandwidths=tuple([bandwidth] * (tile_rows + 1)),
            v_bandwidths=tuple([bandwidth] * (tile_cols + 1)),
            side=side,
        )

    # ------------------------------------------------------------- properties
    @property
    def num_tile_slots(self) -> int:
        """Number of logical tile positions on the chip."""
        return self.tile_rows * self.tile_cols

    @property
    def bandwidth(self) -> int:
        """The chip bandwidth: the minimum capacity over all enabled corridor segments.

        On a pristine chip this is the minimum corridor bandwidth of the
        paper; with defects, per-segment overrides lower it and disabled
        segments are excluded (a fully disconnected corridor grid reports 0).
        """
        if self.tile_graph is None and self.defects.is_empty:
            return min(min(self.h_bandwidths), min(self.v_bandwidths))
        capacities = [
            capacity for _key, capacity in self.corridor_segments() if capacity > 0
        ]
        return min(capacities) if capacities else 0

    @property
    def communication_capacity(self) -> int:
        """Chip communication capacity ``⌊(b-1)/2⌋ + 3`` (Theorem 2).

        A defective chip whose corridor grid is fully disabled has no
        communication capacity at all.
        """
        bandwidth = self.bandwidth
        if bandwidth < 1:
            return 0
        return geometry.communication_capacity(bandwidth)

    @property
    def physical_qubits(self) -> int:
        """Total number of physical qubits of the square chip."""
        return geometry.total_physical_qubits(self.side)

    def tile_slots(self) -> list[TileSlot]:
        """All tile slots in row-major order."""
        return [TileSlot(r, c) for r in range(self.tile_rows) for c in range(self.tile_cols)]

    def contains_slot(self, slot: TileSlot) -> bool:
        """True when ``slot`` lies within the tile array."""
        return 0 <= slot.row < self.tile_rows and 0 <= slot.col < self.tile_cols

    # ---------------------------------------------------------------- defects
    def with_defects(self, defects: DefectSpec) -> "Chip":
        """Return a chip with ``defects`` attached (replacing any existing spec)."""
        return replace(self, defects=defects)

    def is_dead_slot(self, slot: TileSlot) -> bool:
        """True when ``slot`` is a dead tile."""
        return (slot.row, slot.col) in self.defects.dead_set()

    def alive_tile_slots(self) -> list[TileSlot]:
        """All non-dead tile slots in row-major order."""
        dead = self.defects.dead_set()
        return [slot for slot in self.tile_slots() if (slot.row, slot.col) not in dead]

    @property
    def num_alive_tile_slots(self) -> int:
        """Number of tile slots that can host a logical qubit."""
        return self.num_tile_slots - len(self.defects.dead_tiles)

    def segment_capacity(self, key: SegmentKey) -> int:
        """Effective lane count of one corridor segment (0 when disabled).

        The nominal capacity is the corridor's bandwidth; per-segment
        overrides and disabled segments from :attr:`defects` take precedence.
        Overrides model *degraded* hardware, so they are clamped to the
        nominal bandwidth — a spec cannot grant a segment phantom lanes the
        physical corridor does not have.
        """
        kind, r, c = key
        if key in self.defects.disabled_set():
            return 0
        if kind == "e":
            index = self.tile_graph.edge_index(r, c) if self.tile_graph is not None else None
            if index is None:
                raise ChipError(f"chip has no tile-graph edge ({r}, {c})")
            nominal = self.tile_graph.bandwidths[index]
        else:
            nominal = self.h_bandwidths[r] if kind == "h" else self.v_bandwidths[c]
        override = self.defects.override_for(key)
        if override is not None:
            return min(override, nominal)
        return nominal

    def corridor_segments(self) -> list[tuple[SegmentKey, int]]:
        """Every corridor segment with its effective capacity (including 0).

        On graph chips a segment is a tile-graph edge, keyed ``("e", a, b)``
        in the graph's canonical edge order.
        """
        if self.tile_graph is not None:
            return [
                (("e", a, b), self.segment_capacity(("e", a, b)))
                for a, b in self.tile_graph.edges
            ]
        return [
            (key, self.segment_capacity(key))
            for key in (
                [("h", r, c) for r in range(self.tile_rows + 1) for c in range(self.tile_cols)]
                + [("v", r, c) for r in range(self.tile_rows) for c in range(self.tile_cols + 1)]
            )
        ]

    # ------------------------------------------------------ bandwidth adjusting
    def lane_budget_per_axis(self) -> tuple[int, int]:
        """Maximum total lanes per axis (horizontal corridors, vertical corridors).

        Bandwidth adjusting may redistribute lanes between corridors of the
        same axis but may not exceed these totals, which reflect the physical
        width available on the chip.
        """
        if self.tile_graph is not None:
            raise ChipError(
                "graph chips budget lanes per node, not per axis; "
                "see TileGraph.effective_node_budgets"
            )
        h_budget = geometry.axis_budget(self.model, self.code_distance, self.tile_rows, self.side)
        v_budget = geometry.axis_budget(self.model, self.code_distance, self.tile_cols, self.side)
        h_total = max(h_budget.max_total_lanes(), sum(self.h_bandwidths))
        v_total = max(v_budget.max_total_lanes(), sum(self.v_bandwidths))
        return h_total, v_total

    def with_bandwidths(
        self, h_bandwidths: list[int] | tuple[int, ...], v_bandwidths: list[int] | tuple[int, ...]
    ) -> "Chip":
        """Return a chip with redistributed corridor bandwidths.

        Raises :class:`ChipError` if the requested layout exceeds the physical
        lane budget of either axis or drops a corridor below one lane.
        """
        if self.tile_graph is not None:
            raise ChipError("graph chips redistribute lanes with with_edge_bandwidths")
        h_bandwidths = tuple(int(b) for b in h_bandwidths)
        v_bandwidths = tuple(int(b) for b in v_bandwidths)
        h_total, v_total = self.lane_budget_per_axis()
        if len(h_bandwidths) != self.tile_rows + 1 or len(v_bandwidths) != self.tile_cols + 1:
            raise ChipError("bandwidth vectors must match the corridor counts")
        if any(b < 1 for b in h_bandwidths + v_bandwidths):
            raise ChipError("every corridor must keep at least one lane")
        if sum(h_bandwidths) > h_total:
            raise ChipError(
                f"horizontal lane budget exceeded: {sum(h_bandwidths)} > {h_total}"
            )
        if sum(v_bandwidths) > v_total:
            raise ChipError(
                f"vertical lane budget exceeded: {sum(v_bandwidths)} > {v_total}"
            )
        return replace(self, h_bandwidths=h_bandwidths, v_bandwidths=v_bandwidths)

    def with_edge_bandwidths(self, bandwidths: list[int] | tuple[int, ...]) -> "Chip":
        """Graph-chip counterpart of :meth:`with_bandwidths`: per-edge lanes.

        ``bandwidths`` is parallel to the tile graph's canonical edge order.
        Raises :class:`ChipError` when the chip is square, when an edge drops
        below one lane, or when a node's incident total exceeds its width
        budget (the per-node generalisation of the axis lane budget).
        """
        if self.tile_graph is None:
            raise ChipError("square chips redistribute lanes with with_bandwidths")
        return replace(self, tile_graph=self.tile_graph.with_bandwidths(bandwidths))

    def slot_distance(self, a: TileSlot, b: TileSlot) -> int:
        """Placement distance between two tile slots.

        Square chips use Manhattan distance (the paper's metric, unchanged).
        Graph chips use the BFS hop distance between the slots' tiles over
        the defect-adjusted routing graph, precomputed once per chip by one
        BFS per slot (:func:`_graph_hop_distances`); unreachable or dead slots
        report a large finite sentinel so placement costs stay comparable.
        """
        if self.tile_graph is None:
            return a.manhattan_distance(b)
        if a.row == b.row and a.col == b.col:
            return 0
        return _graph_hop_distances(self)[a.row][b.row]

    def describe(self) -> str:
        """One-line human-readable description used by reports."""
        if self.tile_graph is not None:
            text = (
                f"{self.model.value} chip (d={self.code_distance}), "
                f"{self.tile_graph.describe()}, bandwidth={self.bandwidth}, "
                f"capacity={self.communication_capacity}"
            )
        else:
            text = (
                f"{self.model.value} chip L{self.side}x{self.side} (d={self.code_distance}), "
                f"{self.tile_rows}x{self.tile_cols} tiles, bandwidth={self.bandwidth}, "
                f"capacity={self.communication_capacity}"
            )
        if not self.defects.is_empty:
            text += f", defects: {self.defects.describe()}"
        return text


#: Finite "effectively unreachable" distance for graph chips: larger than any
#: real hop distance yet safe to sum in placement costs.
UNREACHABLE_DISTANCE = 1 << 20


@functools.lru_cache(maxsize=8)
def _graph_hop_distances(chip: Chip) -> tuple[tuple[int, ...], ...]:
    """All-pairs tile hop distances for a graph chip (cached per chip value).

    Runs one BFS per tile slot over the defect-adjusted routing graph using
    :meth:`~repro.chip.graph_arrays.CompactRoutingGraph.hop_distances_from`
    seeded at each slot's junction — on graph chips a slot's junction hop
    distance is exactly the tile-graph hop distance.  Dead or unreachable
    slots report :data:`UNREACHABLE_DISTANCE`.
    """
    from repro.chip.graph_arrays import CompactRoutingGraph
    from repro.chip.routing_graph import RoutingGraph

    compact = CompactRoutingGraph(RoutingGraph(chip))
    n = chip.tile_rows
    rows: list[tuple[int, ...]] = []
    for source in range(n):
        source_id = compact.node_id.get(("j", source, 0))
        if source_id is None:
            rows.append(tuple([UNREACHABLE_DISTANCE] * n))
            continue
        table = compact.hop_distances_from(source_id)
        row = []
        for target in range(n):
            target_id = compact.node_id.get(("j", target, 0))
            hops = table[target_id] if target_id is not None else -1
            row.append(hops if hops >= 0 else UNREACHABLE_DISTANCE)
        rows.append(tuple(row))
    return tuple(rows)
