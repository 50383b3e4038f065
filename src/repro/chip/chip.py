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
per-edge bandwidths: segments are keyed ``("e", a, b)`` with ``a < b``,
distances are BFS hops (:meth:`Chip.slot_distance`), and bandwidth adjusting
redistributes lanes per edge under per-node width budgets
(:meth:`Chip.with_edge_bandwidths`).  Square chips keep the paper's corridor
representation unchanged.

Wiring
------
Which junctions a segment joins, its corridor and lanes, and which junctions
a tile reaches are answered only by the chip's wiring section
(:meth:`Chip.segment_keys`, :meth:`Chip.segment`, :meth:`Chip.junctions`,
:meth:`Chip.tile_access`), the one place that tells square from tile-graph
wiring.  Answers are computed from the chip's fields on demand, so building a
chip costs what its description costs, however large the tile array.

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

#: ``("j", row, col)`` corridor junction (the routing graph's junction node).
Junction = tuple[str, int, int]
#: A corridor: ``("h", r)`` / ``("v", c)`` on square chips, ``("e", index)``
#: per tile-graph edge on graph chips.
Corridor = tuple[str, int]


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
        geometry.check_distance(self.code_distance)
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
        else:
            if self.tile_rows < 1 or self.tile_cols < 1:
                raise ChipError("chip needs at least a 1x1 tile array")
            if len(self.h_bandwidths) != self.tile_rows + 1:
                raise ChipError(
                    f"expected {self.tile_rows + 1} horizontal corridors, "
                    f"got {len(self.h_bandwidths)}"
                )
            if len(self.v_bandwidths) != self.tile_cols + 1:
                raise ChipError(
                    f"expected {self.tile_cols + 1} vertical corridors, "
                    f"got {len(self.v_bandwidths)}"
                )
            if any(b < 1 for b in self.h_bandwidths + self.v_bandwidths):
                raise ChipError("every corridor must have bandwidth at least 1")
            tiles_per_side = max(self.tile_rows, self.tile_cols)
            geometry.check_side(self.model, self.code_distance, tiles_per_side, self.side)
        for row, col in self.defects.dead_tiles:
            if not self.contains_slot(TileSlot(row, col)):
                raise ChipError(
                    f"dead tile ({row}, {col}) outside the tile slots "
                    f"(0..{self.tile_rows - 1}, 0..{self.tile_cols - 1})"
                )
        for key in (*self.defects.disabled_segments, *self.defects.override_map()):
            self.segment(key)  # raises ChipError naming a key the chip lacks

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

    @functools.cached_property
    def bandwidth(self) -> int:
        """The chip bandwidth: the minimum capacity over all enabled corridor segments.

        On a pristine chip this is the minimum corridor bandwidth of the
        paper; with defects, per-segment overrides lower it and disabled
        segments are excluded (a fully disconnected corridor grid reports 0).
        Computed once per chip: the double-defect scheduler reads it on every
        cut decision.
        """
        capacities = [lanes for _key, lanes in self.corridor_segments() if lanes > 0]
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
        """Effective lane count of one corridor segment (0 when disabled)."""
        return self.segment(key)[3]

    def corridor_segments(self) -> list[tuple[SegmentKey, int]]:
        """Every corridor segment with its effective capacity (including 0)."""
        return [(key, self.segment(key)[3]) for key in self.segment_keys()]

    # ----------------------------------------------------------------- wiring
    def segment_keys(self) -> list[SegmentKey]:
        """Every corridor segment key: ``"h"`` then ``"v"`` keys row-major on a
        square chip, one ``("e", a, b)`` per tile-graph edge on a graph chip."""
        if self.tile_graph is not None:
            return [("e", a, b) for a, b in self.tile_graph.edges]
        rows, cols = self.tile_rows, self.tile_cols
        return [("h", r, c) for r in range(rows + 1) for c in range(cols)] + [
            ("v", r, c) for r in range(rows) for c in range(cols + 1)
        ]

    def segment(self, key: SegmentKey) -> tuple[Junction, Junction, Corridor, int]:
        """``(junction_a, junction_b, corridor, lanes)`` of one corridor segment.

        ``("h", r, c)`` joins junctions ``(r, c)``–``(r, c + 1)`` of corridor
        ``("h", r)``; ``("v", r, c)`` joins ``(r, c)``–``(r + 1, c)`` of
        ``("v", c)``; ``("e", a, b)``, in either order, joins ``(a, 0)``–``(b, 0)``
        of ``("e", edge index)``.  ``lanes`` is the corridor's bandwidth after
        :attr:`defects`: 0 when disabled, else at most an override (overrides
        model degraded hardware and cannot add lanes).  Raises
        :class:`ChipError` naming ``key`` when the chip has no such segment.
        """
        kind, a, b = key
        graph = self.tile_graph
        if graph is not None:
            index = graph.edge_index(a, b) if kind == "e" else None
            if index is None:
                raise ChipError(
                    f"tile graph has no edge for corridor segment {key!r} "
                    "(graph chips address segments as ('e', a, b))"
                )
            a, b = graph.edges[index]
            key, ends = ("e", a, b), (("j", a, 0), ("j", b, 0))
            corridor, lanes = ("e", index), graph.bandwidths[index]
        elif kind == "h" and 0 <= a <= self.tile_rows and 0 <= b < self.tile_cols:
            ends = (("j", a, b), ("j", a, b + 1))
            corridor, lanes = ("h", a), self.h_bandwidths[a]
        elif kind == "v" and 0 <= a < self.tile_rows and 0 <= b <= self.tile_cols:
            ends = (("j", a, b), ("j", a + 1, b))
            corridor, lanes = ("v", b), self.v_bandwidths[b]
        else:
            rows, cols = self.tile_rows, self.tile_cols
            raise ChipError(
                f"corridor segment {key!r} is not on the {rows}x{cols} tile array (kind 'h': "
                f"0 <= r <= {rows}, 0 <= c < {cols}; kind 'v': 0 <= r < {rows}, 0 <= c <= {cols})"
            )
        override = 0 if key in self.defects.disabled_set() else self.defects.override_for(key)
        return (*ends, corridor, lanes if override is None else min(override, lanes))

    def junctions(self) -> list[Junction]:
        """Every corridor junction, row-major: one per corridor crossing on a
        square chip, one ``(i, 0)`` per tile-graph node on a graph chip."""
        if self.tile_graph is not None:
            return [("j", i, 0) for i in range(self.tile_rows)]
        return [("j", r, c) for r in range(self.tile_rows + 1) for c in range(self.tile_cols + 1)]

    def tile_access(self, row: int, col: int) -> tuple[Junction, ...]:
        """The junctions tile slot ``(row, col)`` reaches: its four corners on a
        square chip, its own junction on a graph chip."""
        if self.tile_graph is not None:
            return (("j", row, 0),)
        return (("j", row, col), ("j", row, col + 1), ("j", row + 1, col), ("j", row + 1, col + 1))

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
    seeded at the slot's access junction (:meth:`Chip.tile_access`, one per
    tile on graph chips) — there a slot's junction hop distance is exactly
    the tile-graph hop distance.  Unreachable slots report
    :data:`UNREACHABLE_DISTANCE`.
    """
    from repro.chip.graph_arrays import CompactRoutingGraph
    from repro.chip.routing_graph import RoutingGraph

    compact = CompactRoutingGraph(RoutingGraph(chip))
    slots = range(chip.tile_rows)
    ids = [compact.node_id[access] for slot in slots for access in chip.tile_access(slot, 0)]
    rows: list[tuple[int, ...]] = []
    for source_id in ids:
        table = compact.hop_distances_from(source_id)
        rows.append(tuple(table[t] if table[t] >= 0 else UNREACHABLE_DISTANCE for t in ids))
    return tuple(rows)
