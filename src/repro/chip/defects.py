"""Defect specifications: dead tiles and degraded / disabled corridor segments.

Real superconducting devices are not pristine rectangles: fabrication defects
kill individual qubits and degrade couplers.  On the tile-and-corridor
abstraction of this reproduction a defect shows up as either

* a **dead tile slot** — the tile cannot host a logical qubit and its access
  edges disappear from the routing graph, or
* a **degraded corridor segment** — one junction-to-junction segment of a
  corridor carries fewer lanes than the corridor's nominal bandwidth
  (capacity ``0`` removes the segment entirely).

A :class:`DefectSpec` is an immutable, hashable value attached to a
:class:`~repro.chip.chip.Chip`; every consumer (routing graph, placement,
validator, cache fingerprints) derives its view from the chip, so a defect
declared once is honored end-to-end.

Segment keys
------------
Corridor segments are addressed as ``(kind, index, offset)``:

* ``("h", r, c)`` — the segment of horizontal corridor ``r`` between
  junctions ``(r, c)`` and ``(r, c + 1)``, with ``0 <= r <= tile_rows`` and
  ``0 <= c < tile_cols``;
* ``("v", r, c)`` — the segment of vertical corridor ``c`` between junctions
  ``(r, c)`` and ``(r + 1, c)``, with ``0 <= r < tile_rows`` and
  ``0 <= c <= tile_cols``;
* ``("e", a, b)`` — on graph chips (:attr:`~repro.chip.chip.Chip.tile_graph`
  set), the tile-graph edge between nodes ``a`` and ``b``.  An edge has no
  direction, so a spec stores its key canonically with ``a < b``: ``("e", 9,
  0)`` and ``("e", 0, 9)`` name the same segment and give equal specs.

Graph chips address dead tiles as ``(node, 0)``.  A spec is plain data; the
chip it is attached to checks every key against its own wiring
(:meth:`~repro.chip.chip.Chip.segment`), so ``"e"`` keys are rejected on
square chips and ``"h"``/``"v"`` keys on graph chips, by name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ChipError

#: ``(kind, row, col)`` address of one corridor segment (see module docstring).
SegmentKey = tuple[str, int, int]


def _canonical_key(kind, a, b) -> SegmentKey:
    """One spelling per segment: tile-graph edge keys put the smaller node first."""
    kind, a, b = str(kind), int(a), int(b)
    return (kind, b, a) if kind == "e" and a > b else (kind, a, b)


@dataclass(frozen=True)
class DefectSpec:
    """An immutable set of chip defects.

    ``dead_tiles`` lists ``(row, col)`` tile slots that cannot host logical
    qubits.  ``disabled_segments`` lists corridor segments removed from the
    routing graph.  ``bandwidth_overrides`` maps corridor segments to an
    explicit lane count overriding the corridor's nominal bandwidth (an
    override of ``0`` disables the segment, same as listing it in
    ``disabled_segments``; overrides model degraded hardware, so values
    above the nominal bandwidth are clamped down to it by the chip).

    All collections are canonicalised (sorted, deduplicated, tile-graph edge
    keys written ``("e", a, b)`` with ``a < b``) so two specs describing the
    same defects compare and hash equal.
    """

    dead_tiles: tuple[tuple[int, int], ...] = ()
    disabled_segments: tuple[SegmentKey, ...] = ()
    bandwidth_overrides: tuple[tuple[SegmentKey, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "dead_tiles", tuple(sorted({(int(r), int(c)) for r, c in self.dead_tiles}))
        )
        object.__setattr__(
            self,
            "disabled_segments",
            tuple(sorted({_canonical_key(*key) for key in self.disabled_segments})),
        )
        overrides: dict[SegmentKey, int] = {}
        for key, capacity in self.bandwidth_overrides:
            capacity = int(capacity)
            if capacity < 0:
                raise ChipError(f"bandwidth override for segment {key} must be >= 0, got {capacity}")
            overrides[_canonical_key(*key)] = capacity
        object.__setattr__(self, "bandwidth_overrides", tuple(sorted(overrides.items())))
        # Derived views, cached once: these are queried per-slot / per-segment
        # in hot loops (placement validation, routing-graph construction).
        # Cached attributes are not dataclass fields, so eq/hash/pickle are
        # unaffected.
        object.__setattr__(self, "_dead", frozenset(self.dead_tiles))
        zero = frozenset(key for key, capacity in self.bandwidth_overrides if capacity == 0)
        object.__setattr__(self, "_disabled", frozenset(self.disabled_segments) | zero)
        object.__setattr__(self, "_overrides", overrides)

    # ---------------------------------------------------------------- queries
    @property
    def is_empty(self) -> bool:
        """True when the spec declares no defects at all."""
        return not (self.dead_tiles or self.disabled_segments or self.bandwidth_overrides)

    def dead_set(self) -> frozenset[tuple[int, int]]:
        """The dead tile slots as a set of ``(row, col)`` pairs."""
        return self._dead

    def override_map(self) -> dict[SegmentKey, int]:
        """Segment → capacity overrides as a dict (a copy; mutate freely)."""
        return dict(self._overrides)

    def override_for(self, key: SegmentKey) -> int | None:
        """The capacity override for one segment, or ``None``."""
        return self._overrides.get(key)

    def disabled_set(self) -> frozenset[SegmentKey]:
        """Segments removed from the graph (explicit plus zero-capacity overrides)."""
        return self._disabled

    def describe(self) -> str:
        """Short human-readable summary for :meth:`Chip.describe`."""
        return (
            f"{len(self.dead_tiles)} dead tiles, "
            f"{len(self.disabled_set())} disabled segments, "
            f"{len(self.bandwidth_overrides)} overrides"
        )

    # ------------------------------------------------------------ persistence
    def key(self) -> list:
        """Canonical JSON-able representation (cache fingerprints, specs)."""
        return [
            [list(t) for t in self.dead_tiles],
            [list(s) for s in self.disabled_segments],
            [[list(k), capacity] for k, capacity in self.bandwidth_overrides],
        ]

    def to_dict(self) -> dict:
        """JSON-able dict used by the chip-spec file format."""
        return {
            "dead_tiles": [list(t) for t in self.dead_tiles],
            "disabled_segments": [list(s) for s in self.disabled_segments],
            "bandwidth_overrides": [[list(k), capacity] for k, capacity in self.bandwidth_overrides],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DefectSpec":
        """Inverse of :meth:`to_dict` (missing keys mean "no such defects")."""
        return cls(
            dead_tiles=tuple((r, c) for r, c in payload.get("dead_tiles", ())),
            disabled_segments=tuple((k, r, c) for k, r, c in payload.get("disabled_segments", ())),
            bandwidth_overrides=tuple(
                ((k, r, c), capacity) for (k, r, c), capacity in payload.get("bandwidth_overrides", ())
            ),
        )


#: The pristine-chip spec, shared as the `Chip.defects` default.
NO_DEFECTS = DefectSpec()


# ----------------------------------------------------------- random generation
def chip_is_routable(chip) -> bool:
    """True when every alive tile of ``chip`` can route to every other.

    A path's interior consists solely of junctions, each needing at least one
    enabled incident segment (zero-through-capacity junctions cannot be
    crossed), and tiles are endpoints only — so tile-to-tile routability is
    *not* transitive: one tile's access junctions may touch two mutually
    disconnected junction components.  The check therefore computes the
    connected components of the usable-junction subgraph (corridor edges
    between junctions of capacity >= 1) and requires every pair of alive
    tiles to share at least one component among their access junctions
    (:meth:`~repro.chip.chip.Chip.tile_access`), which is
    exactly the feasibility condition of
    :meth:`repro.routing.fast_router.FastRouter.find` on an empty usage state.
    The graph comes from the process's store
    (:data:`~repro.chip.routing_graph.ROUTING_GRAPHS`).
    """
    from repro.chip.routing_graph import ROUTING_GRAPHS

    return _tiles_connected(ROUTING_GRAPHS.graph_for(chip), frozenset())


def _tiles_connected(graph, disabled: frozenset[int] | set[int]) -> bool:
    """:func:`chip_is_routable` on ``graph`` with the corridor edges of ids ``disabled`` removed.

    Removing a graph's edge is exactly what disabling its segment does to
    the chip's graph: a junction stays usable while an enabled corridor edge
    touches it, which is when its through-capacity is at least one.
    """
    tiles = graph.tile_nodes()
    if len(tiles) <= 1:
        return True
    # Connected components of the usable-junction subgraph, over node ids:
    # junctions come first, and a junction's row holds only junctions.
    rows = graph.junction_adjacency
    num_junctions = len(graph.nodes) - len(tiles)
    usable = [
        any(eid not in disabled for _neighbor, eid in rows[j]) for j in range(num_junctions)
    ]
    component = [-1] * num_junctions
    for start in range(num_junctions):
        if not usable[start] or component[start] >= 0:
            continue
        component[start] = start
        stack = [start]
        while stack:
            for neighbor, eid in rows[stack.pop()]:
                if component[neighbor] < 0 and eid not in disabled:
                    component[neighbor] = start
                    stack.append(neighbor)
    # Each tile can start a path into any component its access junctions touch.
    reach = [
        {component[j] for j, _eid in rows[tile] if component[j] >= 0}
        for tile in range(num_junctions, len(graph.nodes))
    ]
    if any(not r for r in reach):
        return False  # a tile with no usable access junction routes nowhere
    return all(a & b for i, a in enumerate(reach) for b in reach[i + 1 :])


def random_defects(
    chip,
    rate: float,
    seed: int = 0,
    min_alive_tiles: int = 1,
) -> DefectSpec:
    """Sample a random, connectivity-preserving defect spec for ``chip``.

    ``rate`` is the fraction of tile slots killed and of corridor segments
    degraded (half of the degraded segments are disabled outright, the other
    half drop to one lane).  Defects already declared on ``chip`` are kept:
    the returned spec is a superset of ``chip.defects``, so a chip loaded
    from a measured spec file composes with further random degradation.

    At least ``min_alive_tiles`` tile slots stay alive, and any disabled
    segment that would disconnect the alive tiles (including via a junction
    left with no enabled segment) is demoted to a one-lane override instead,
    so a routable input chip always yields a routable result.  Lane counts
    never decide routability, so every trial disable is checked on one
    routing graph per sample — the chip with its dead tiles and declared
    defects, from the process's store — with the trial's edges removed.
    """
    from repro.chip.routing_graph import ROUTING_GRAPHS, edge_key

    if not 0.0 <= rate <= 1.0:
        raise ChipError(f"defect rate must be in [0, 1], got {rate}")
    base: DefectSpec = chip.defects
    alive = [(slot.row, slot.col) for slot in chip.alive_tile_slots()]
    if min_alive_tiles > len(alive):
        raise ChipError(
            f"chip has only {len(alive)} alive tile slots, cannot keep {min_alive_tiles} alive"
        )
    rng = random.Random(seed)
    num_dead = min(int(rate * chip.num_tile_slots), len(alive) - min_alive_tiles)
    dead = tuple(base.dead_tiles) + (tuple(rng.sample(alive, num_dead)) if num_dead else ())

    segments: list[SegmentKey] = [key for key, _ in chip.corridor_segments()]
    num_degraded = int(rate * len(segments))
    degraded = rng.sample(segments, num_degraded) if num_degraded else []

    graph = ROUTING_GRAPHS.graph_for(
        chip.with_defects(
            DefectSpec(
                dead_tiles=dead,
                disabled_segments=base.disabled_segments,
                bandwidth_overrides=base.bandwidth_overrides,
            )
        )
    )
    disabled: list[SegmentKey] = list(base.disabled_segments)
    disabled_edges: set[int] = set()
    overrides: dict[SegmentKey, int] = base.override_map()
    for index, segment in enumerate(degraded):
        if index % 2 == 0:
            # Try to disable the segment; keep only if the chip stays routable.
            a, b, _corridor, _lanes = chip.segment(segment)
            eid = graph.edge_id.get(edge_key(a, b))  # None: already absent
            trial = disabled_edges if eid is None else disabled_edges | {eid}
            if _tiles_connected(graph, trial):
                disabled.append(segment)
                disabled_edges = trial
            else:
                overrides[segment] = min(overrides.get(segment, 1), 1)
        else:
            overrides[segment] = min(overrides.get(segment, 1), 1)
    spec = DefectSpec(
        dead_tiles=dead,
        disabled_segments=tuple(disabled),
        bandwidth_overrides=tuple(overrides.items()),
    )
    if not _tiles_connected(graph, disabled_edges):  # pragma: no cover - defensive
        spec = DefectSpec(
            dead_tiles=dead,
            disabled_segments=tuple(base.disabled_segments),
            bandwidth_overrides=tuple(overrides.items()),
        )
    return spec
