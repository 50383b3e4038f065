"""Arbitrary tile-graph geometries: the topology core behind :class:`Chip`.

The paper models a chip as a square ``l×l`` tile lattice with row/column
corridors.  Real devices are heading elsewhere — heavy-hex layouts, degree-3
couplers, sparse user-drawn topologies — so this module generalises the chip
substrate to an explicit graph:

* **nodes** are tile slots, identified by their index ``0..n-1`` and carrying
  a 2-D coordinate (used by placement splits and by :mod:`repro.viz`),
* **edges** are corridor segments between tile slots, each with an integer
  nominal bandwidth (number of lanes), and
* each node has a **width budget** bounding the total lanes of its incident
  edges — the graph generalisation of the per-axis lane budget that square
  chips derive from their physical side.

The square lattice is then just one constructor among several
(:func:`square_lattice`, :func:`hex_lattice`, :func:`heavy_hex`,
:func:`degree3_sparse`); a :class:`TileGraph` attached to a chip switches
every downstream consumer — routing graph, placement, bandwidth adjusting,
validator, viz — onto the graph view.  Graph chips address tile slot ``i``
as ``TileSlot(i, 0)`` and persist as CHIP_SPEC version 2 (see
:mod:`repro.chip.spec`).

Everything here is deterministic: node and edge orders are canonical (edges
sorted by endpoint pair), and the only randomness — :func:`degree3_sparse` —
draws from a seeded private ``random.Random``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from repro.errors import ChipError


@dataclass(frozen=True)
class TileGraph:
    """An immutable tile-graph geometry.

    ``coords[i]`` is the 2-D coordinate of tile slot ``i`` (layout only —
    distances come from graph hops, not Euclidean geometry).  ``edges`` holds
    canonical ``(a, b)`` endpoint pairs with ``a < b``, sorted; ``bandwidths``
    is parallel to ``edges``.  ``node_budgets`` optionally bounds the total
    lanes incident to each node; omitted, each node's budget is exactly the
    sum of its incident nominal bandwidths (no spare to redistribute).
    """

    name: str
    coords: tuple[tuple[float, float], ...]
    edges: tuple[tuple[int, int], ...]
    bandwidths: tuple[int, ...]
    node_budgets: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        coords = tuple((float(x), float(y)) for x, y in self.coords)
        object.__setattr__(self, "coords", coords)
        n = len(coords)
        if n < 1:
            raise ChipError("tile graph needs at least one node")
        if len(self.bandwidths) != len(self.edges):
            raise ChipError(
                f"tile graph has {len(self.edges)} edges but {len(self.bandwidths)} bandwidths"
            )
        normalised: list[tuple[int, int, int]] = []
        for (a, b), bandwidth in zip(self.edges, self.bandwidths):
            a, b, bandwidth = int(a), int(b), int(bandwidth)
            if a == b:
                raise ChipError(f"tile graph edge ({a}, {b}) is a self-loop")
            if a > b:
                a, b = b, a
            if not (0 <= a < n and 0 <= b < n):
                raise ChipError(f"tile graph edge ({a}, {b}) references a node outside 0..{n - 1}")
            if bandwidth < 1:
                raise ChipError(f"tile graph edge ({a}, {b}) must have bandwidth >= 1, got {bandwidth}")
            normalised.append((a, b, bandwidth))
        normalised.sort()
        pairs = [(a, b) for a, b, _ in normalised]
        if len(set(pairs)) != len(pairs):
            duplicate = next(p for i, p in enumerate(pairs) if p in pairs[:i])
            raise ChipError(f"tile graph edge {duplicate} is declared twice")
        object.__setattr__(self, "edges", tuple(pairs))
        object.__setattr__(self, "bandwidths", tuple(b for _, _, b in normalised))
        # Derived views, cached once (not dataclass fields; eq/hash unaffected).
        incident: list[list[int]] = [[] for _ in range(n)]
        index: dict[tuple[int, int], int] = {}
        for i, (a, b) in enumerate(self.edges):
            index[(a, b)] = i
            incident[a].append(i)
            incident[b].append(i)
        object.__setattr__(self, "_edge_index", index)
        object.__setattr__(self, "_incident", tuple(tuple(e) for e in incident))
        if self.node_budgets is not None:
            budgets = tuple(int(b) for b in self.node_budgets)
            if len(budgets) != n:
                raise ChipError(
                    f"tile graph has {n} nodes but {len(budgets)} node budgets"
                )
            for node in range(n):
                incident_total = sum(self.bandwidths[e] for e in incident[node])
                if budgets[node] < incident_total:
                    raise ChipError(
                        f"node {node} width budget {budgets[node]} is below its "
                        f"incident bandwidth total {incident_total}"
                    )
            object.__setattr__(self, "node_budgets", budgets)

    # ---------------------------------------------------------------- queries
    @property
    def num_nodes(self) -> int:
        """Number of tile slots."""
        return len(self.coords)

    @property
    def num_edges(self) -> int:
        """Number of corridor edges."""
        return len(self.edges)

    def incident_edges(self, node: int) -> tuple[int, ...]:
        """Indices (into :attr:`edges`) of the edges touching ``node``."""
        return self._incident[node]

    def degree(self, node: int) -> int:
        """Number of edges touching ``node``."""
        return len(self._incident[node])

    def edge_index(self, a: int, b: int) -> int | None:
        """The index of edge ``{a, b}``, or ``None`` when absent."""
        return self._edge_index.get((a, b) if a < b else (b, a))

    def effective_node_budgets(self) -> tuple[int, ...]:
        """Per-node lane budgets, deriving absent ones from incident bandwidth."""
        if self.node_budgets is not None:
            return self.node_budgets
        return tuple(
            sum(self.bandwidths[e] for e in self._incident[node])
            for node in range(self.num_nodes)
        )

    def with_bandwidths(self, bandwidths: list[int] | tuple[int, ...]) -> "TileGraph":
        """Return a graph with per-edge bandwidths replaced (budgets validated).

        Raises :class:`ChipError` when a bandwidth drops below one lane or a
        node's incident total exceeds its width budget.
        """
        bandwidths = tuple(int(b) for b in bandwidths)
        if len(bandwidths) != self.num_edges:
            raise ChipError(
                f"expected {self.num_edges} edge bandwidths, got {len(bandwidths)}"
            )
        if any(b < 1 for b in bandwidths):
            raise ChipError("every corridor edge must keep at least one lane")
        budgets = self.effective_node_budgets()
        for node in range(self.num_nodes):
            total = sum(bandwidths[e] for e in self._incident[node])
            if total > budgets[node]:
                raise ChipError(
                    f"node {node} lane budget exceeded: {total} > {budgets[node]}"
                )
        return replace(self, bandwidths=bandwidths)

    # ------------------------------------------------------------ persistence
    def key(self) -> list:
        """Canonical JSON-able representation (cache fingerprints)."""
        return [
            self.name,
            [[x, y] for x, y in self.coords],
            [[a, b, w] for (a, b), w in zip(self.edges, self.bandwidths)],
            list(self.node_budgets) if self.node_budgets is not None else None,
        ]

    def to_dict(self) -> dict:
        """JSON-able dict used by the CHIP_SPEC v2 ``geometry`` block."""
        payload = {
            "name": self.name,
            "nodes": [[x, y] for x, y in self.coords],
            "edges": [[a, b, w] for (a, b), w in zip(self.edges, self.bandwidths)],
        }
        if self.node_budgets is not None:
            payload["node_budgets"] = list(self.node_budgets)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TileGraph":
        """Inverse of :meth:`to_dict`; raises :class:`ChipError` on bad shapes."""
        if not isinstance(payload, dict):
            raise ChipError(
                f"chip spec field 'geometry' must be an object, got {type(payload).__name__}"
            )
        allowed = {"name", "nodes", "edges", "node_budgets"}
        for field in sorted(payload):
            if field not in allowed:
                raise ChipError(
                    f"chip spec geometry has unknown field {field!r}; "
                    f"expected one of {sorted(allowed)}"
                )
        name = payload.get("name", "custom")
        if not isinstance(name, str):
            raise ChipError(
                f"chip spec field 'geometry.name' must be a string, got {type(name).__name__}"
            )
        nodes = payload.get("nodes")
        if not isinstance(nodes, list) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in nodes
        ):
            raise ChipError("chip spec field 'geometry.nodes' must be a list of [x, y] pairs")
        edges = payload.get("edges")
        if not isinstance(edges, list) or not all(
            isinstance(e, (list, tuple)) and len(e) == 3 for e in edges
        ):
            raise ChipError(
                "chip spec field 'geometry.edges' must be a list of [a, b, bandwidth] triples"
            )
        budgets = payload.get("node_budgets")
        if budgets is not None and not isinstance(budgets, list):
            raise ChipError(
                "chip spec field 'geometry.node_budgets' must be a list of integers"
            )
        try:
            return cls(
                name=name,
                coords=tuple((float(x), float(y)) for x, y in nodes),
                edges=tuple((int(a), int(b)) for a, b, _ in edges),
                bandwidths=tuple(int(w) for _, _, w in edges),
                node_budgets=tuple(int(b) for b in budgets) if budgets is not None else None,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ChipError(f"malformed chip spec geometry: {exc}") from exc

    def describe(self) -> str:
        """Short human-readable summary for :meth:`Chip.describe`."""
        return f"{self.name} graph, {self.num_nodes} tiles, {self.num_edges} edges"


# ----------------------------------------------------------------- generators
def square_lattice(rows: int, cols: int, bandwidth: int = 1) -> TileGraph:
    """A ``rows × cols`` grid graph — the paper's lattice as a tile graph.

    Square :class:`~repro.chip.chip.Chip` objects keep the corridor
    representation; this constructor exists so the square lattice is *also*
    expressible in the graph core (comparisons, tests, custom specs).

    It routes differently from the paper's square chip.  A square chip's
    routing graph is an (r+1)×(c+1) junction lattice with each tile attached
    to its four corner junctions; a graph chip has one junction per tile.  On
    a 4×4 chip the square routing graph has 41 nodes and 104 edges, this one
    32 nodes and 40 edges, and ``ecmas_dd_min`` needs more cycles here
    (qft_n10 45 vs 53, ising_n10 20 vs 30, multiplier_n15 92 vs 107).
    """
    if rows < 1 or cols < 1:
        raise ChipError("square lattice needs at least a 1x1 grid")
    coords = tuple((float(c), float(r)) for r in range(rows) for c in range(cols))
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return TileGraph(
        name=f"square_{rows}x{cols}",
        coords=coords,
        edges=tuple(edges),
        bandwidths=tuple([int(bandwidth)] * len(edges)),
    )


def hex_lattice(rows: int, cols: int, bandwidth: int = 1) -> TileGraph:
    """A brick-wall honeycomb lattice: degree <= 3 everywhere.

    Every row is a horizontal chain; vertical rungs connect ``(r, c)`` to
    ``(r + 1, c)`` only where ``r + c`` is even, which tiles the plane with
    hexagonal cells (drawn as bricks).
    """
    if rows < 1 or cols < 2:
        raise ChipError("hex lattice needs at least 1 row and 2 columns")
    coords = tuple((float(c), float(r)) for r in range(rows) for c in range(cols))
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows and (r + c) % 2 == 0:
                edges.append((node, node + cols))
    return TileGraph(
        name=f"hex_{rows}x{cols}",
        coords=coords,
        edges=tuple(edges),
        bandwidths=tuple([int(bandwidth)] * len(edges)),
    )


def heavy_hex(rows: int, cols: int, bandwidth: int = 1) -> TileGraph:
    """A heavy-hex lattice: the hex lattice with every edge subdivided.

    Mid-edge nodes (degree 2) model the flag/coupler tiles of heavy-hex
    devices; original hex nodes keep degree <= 3.  Node ids: the ``rows*cols``
    hex nodes first, then one mid node per hex edge in the hex lattice's
    canonical edge order.
    """
    base = hex_lattice(rows, cols, bandwidth)
    coords = list(base.coords)
    edges: list[tuple[int, int]] = []
    bandwidths: list[int] = []
    for (a, b), lanes in zip(base.edges, base.bandwidths):
        mid = len(coords)
        (ax, ay), (bx, by) = base.coords[a], base.coords[b]
        coords.append(((ax + bx) / 2.0, (ay + by) / 2.0))
        edges.extend([(a, mid), (mid, b)])
        bandwidths.extend([lanes, lanes])
    return TileGraph(
        name=f"heavy_hex_{rows}x{cols}",
        coords=tuple(coords),
        edges=tuple(edges),
        bandwidths=tuple(bandwidths),
    )


def degree3_sparse(num_tiles: int, seed: int = 0, bandwidth: int = 1) -> TileGraph:
    """A connected random graph with maximum degree 3 (seeded, deterministic).

    Starts from a seeded-random Hamiltonian path (guaranteeing connectivity,
    degree <= 2) and adds extra edges between low-degree nodes until roughly
    ``num_tiles / 2`` extras are placed or no candidate pair remains with
    both degrees below 3.  Nodes sit on a circle for rendering.
    """
    if num_tiles < 2:
        raise ChipError("sparse graph needs at least 2 tiles")
    rng = random.Random(seed)
    order = list(range(num_tiles))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[i + 1]))) for i in range(num_tiles - 1)}
    degree = [0] * num_tiles
    for a, b in sorted(edges):
        degree[a] += 1
        degree[b] += 1
    candidates = [
        (a, b) for a in range(num_tiles) for b in range(a + 1, num_tiles)
    ]
    rng.shuffle(candidates)
    extras_wanted = num_tiles // 2
    extras = 0
    for a, b in candidates:
        if extras >= extras_wanted:
            break
        if (a, b) in edges or degree[a] >= 3 or degree[b] >= 3:
            continue
        edges.add((a, b))
        degree[a] += 1
        degree[b] += 1
        extras += 1
    coords = tuple(
        (
            round(math.cos(2.0 * math.pi * i / num_tiles) * num_tiles / 2.0, 3),
            round(math.sin(2.0 * math.pi * i / num_tiles) * num_tiles / 2.0, 3),
        )
        for i in range(num_tiles)
    )
    ordered = tuple(sorted(edges))
    return TileGraph(
        name=f"sparse3_n{num_tiles}_s{seed}",
        coords=coords,
        edges=ordered,
        bandwidths=tuple([int(bandwidth)] * len(ordered)),
    )


#: Built-in geometry families accepted by :func:`builtin_tile_graph` (CLI
#: ``--geometry``): ``heavy_hex:RxC``, ``hex:RxC``, ``square:RxC``,
#: ``sparse3:N[:SEED]``.
BUILTIN_GEOMETRIES = ("heavy_hex", "hex", "square", "sparse3")


def builtin_tile_graph(spec: str) -> TileGraph:
    """Parse a built-in geometry spec string like ``heavy_hex:3x3``.

    Formats: ``heavy_hex:RxC``, ``hex:RxC``, ``square:RxC``,
    ``sparse3:N`` or ``sparse3:N:SEED``.  Raises :class:`ChipError` with the
    accepted grammar on anything else.
    """
    usage = (
        f"expected one of {', '.join(BUILTIN_GEOMETRIES)} as "
        "'heavy_hex:RxC', 'hex:RxC', 'square:RxC', or 'sparse3:N[:SEED]'"
    )
    parts = spec.split(":")
    family = parts[0]
    try:
        if family in ("heavy_hex", "hex", "square") and len(parts) == 2:
            rows_text, _, cols_text = parts[1].partition("x")
            rows, cols = int(rows_text), int(cols_text)
            if family == "heavy_hex":
                return heavy_hex(rows, cols)
            if family == "hex":
                return hex_lattice(rows, cols)
            return square_lattice(rows, cols)
        if family == "sparse3" and len(parts) in (2, 3):
            num_tiles = int(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else 0
            return degree3_sparse(num_tiles, seed=seed)
    except ValueError as exc:
        raise ChipError(f"bad geometry spec {spec!r}: {usage}") from exc
    raise ChipError(f"bad geometry spec {spec!r}: {usage}")
