"""Plain-text visualisation of chips, placements and schedules.

Rendering is deliberately ASCII-only so the output is usable in terminals,
logs and tests:

* :func:`render_placement` — the tile array with the logical qubit hosted by
  each slot and the corridor bandwidths between rows/columns,
* :func:`render_schedule_timeline` — one line per clock cycle listing the
  operations active in that cycle,
* :func:`render_gantt` — a per-qubit occupancy chart of the encoded circuit.
"""

from __future__ import annotations

import math

from repro.chip.chip import Chip, TileSlot
from repro.core.schedule import EncodedCircuit, OperationKind
from repro.partition.placement import Placement

_KIND_SYMBOL = {
    OperationKind.CNOT_BRAID: "B",
    OperationKind.CNOT_SAME_CUT: "S",
    OperationKind.CUT_MODIFICATION: "m",
    OperationKind.CUT_REMAP: "r",
}


def render_placement(chip: Chip, placement: Placement) -> str:
    """Render the tile array with hosted qubits and corridor bandwidths.

    Graph chips (``chip.tile_graph`` set) render as a coordinate-scaled
    scatter of tile labels plus an edge/bandwidth list instead of the grid
    drawing; dead tiles still render as ``X``.
    """
    if chip.tile_graph is not None:
        return _render_graph_placement(chip, placement)
    slot_to_qubit = {slot: qubit for qubit, slot in placement.qubit_to_slot.items()}
    dead = chip.defects.dead_set()
    cell_width = max(4, max((len(f"q{q}") for q in placement.qubit_to_slot), default=2) + 1)
    lines: list[str] = [f"chip: {chip.describe()}"]
    for row in range(chip.tile_rows):
        # Horizontal corridor above this tile row.
        lines.append(_corridor_line(chip, row, chip.tile_cols, cell_width))
        cells = []
        for col in range(chip.tile_cols):
            qubit = slot_to_qubit.get(TileSlot(row, col))
            if (row, col) in dead:
                label = "X"
            else:
                label = f"q{qubit}" if qubit is not None else "."
            cells.append(label.center(cell_width))
        bandwidth = chip.v_bandwidths
        row_text = ""
        for col, cell in enumerate(cells):
            row_text += f"|{bandwidth[col]}|" if col == 0 else "|"
            row_text += cell
        row_text += f"|{bandwidth[-1]}|"
        lines.append(row_text)
    lines.append(_corridor_line(chip, chip.tile_rows, chip.tile_cols, cell_width))
    lines.append(
        "(numbers on the borders are corridor bandwidths; '.' = unused tile slot"
        + ("; 'X' = dead tile)" if dead else ")")
    )
    return "\n".join(lines) + "\n"


def _render_graph_placement(chip: Chip, placement: Placement) -> str:
    """ASCII scatter of a graph chip: node labels at scaled coordinates.

    Each tile renders as ``id:label`` where the label is the hosted qubit,
    ``.`` for an unused alive tile, or ``X`` for a dead tile; the tile-graph
    edges follow as an ``a-b:bandwidth`` list (effective capacities, so
    disabled edges show ``:0``).
    """
    graph = chip.tile_graph
    slot_to_qubit = {slot: qubit for qubit, slot in placement.qubit_to_slot.items()}
    dead = chip.defects.dead_set()
    labels = []
    for node in range(graph.num_nodes):
        if (node, 0) in dead:
            labels.append(f"{node}:X")
        else:
            qubit = slot_to_qubit.get(TileSlot(node, 0))
            labels.append(f"{node}:q{qubit}" if qubit is not None else f"{node}:.")
    xs = [x for x, _ in graph.coords]
    ys = [y for _, y in graph.coords]
    x_span = max(xs) - min(xs) or 1.0
    y_span = max(ys) - min(ys) or 1.0
    cell = max(len(label) for label in labels) + 1
    width = min(100, max(cell * 4, int(round(math.sqrt(graph.num_nodes))) * cell * 2))
    height = max(2, int(round(width * y_span / x_span / 2.4)))
    grid = [[" "] * (width + cell) for _ in range(height + 1)]
    for node in range(graph.num_nodes):
        x, y = graph.coords[node]
        row = int(round((y - min(ys)) / y_span * height))
        col = int(round((x - min(xs)) / x_span * width))
        while any(c != " " for c in grid[row][col : col + len(labels[node]) + 1]):
            col += 1  # nudge right on collisions; rows are coarse
        for offset, char in enumerate(labels[node]):
            grid[row][col + offset] = char
    lines = [f"chip: {chip.describe()}"]
    lines.extend("".join(row).rstrip() for row in grid)
    edge_parts = [
        f"{a}-{b}:{chip.segment_capacity(('e', a, b))}" for a, b in graph.edges
    ]
    for start in range(0, len(edge_parts), 10):
        prefix = "edges: " if start == 0 else "       "
        lines.append(prefix + " ".join(edge_parts[start : start + 10]))
    lines.append(
        "(labels are node:qubit; '.' = unused tile"
        + ("; 'X' = dead tile)" if dead else ")")
    )
    return "\n".join(line for line in lines if line is not None) + "\n"


def _corridor_line(chip: Chip, corridor: int, cols: int, cell_width: int) -> str:
    bandwidth = chip.h_bandwidths[corridor]
    segment = ("=" * cell_width if bandwidth > 1 else "-" * cell_width)
    return f"+{bandwidth}+" + ("+".join([segment] * cols)) + f"+{bandwidth}+"


def render_schedule_timeline(encoded: EncodedCircuit, max_cycles: int | None = None) -> str:
    """One line per clock cycle listing the active operations."""
    lines = [f"schedule: {encoded.method}, {encoded.num_cycles} cycles, {len(encoded.operations)} operations"]
    limit = encoded.num_cycles if max_cycles is None else min(max_cycles, encoded.num_cycles)
    for cycle in range(limit):
        ops = encoded.operations_in_cycle(cycle)
        parts = []
        for op in sorted(ops, key=lambda o: (o.kind.value, o.qubits)):
            qubits = ",".join(f"q{q}" for q in op.qubits)
            symbol = _KIND_SYMBOL.get(op.kind, "?")
            parts.append(f"{symbol}({qubits})")
        lines.append(f"cycle {cycle:4d}: " + (" ".join(parts) if parts else "-"))
    if limit < encoded.num_cycles:
        lines.append(f"... ({encoded.num_cycles - limit} more cycles)")
    return "\n".join(lines) + "\n"


def render_gantt(encoded: EncodedCircuit, max_cycles: int = 80) -> str:
    """Per-qubit occupancy chart: one row per logical qubit, one column per cycle.

    ``B`` marks a one-cycle braid, ``S`` a three-cycle same-cut execution,
    ``m`` a cut-type modification, ``r`` a ReSu cut remap and ``.`` idle time.
    """
    cycles = min(encoded.num_cycles, max_cycles)
    qubits = sorted({q for op in encoded.operations for q in op.qubits})
    grid = {q: ["."] * cycles for q in qubits}
    for op in encoded.operations:
        symbol = _KIND_SYMBOL.get(op.kind, "?")
        for cycle in range(op.start_cycle, min(op.end_cycle, cycles)):
            for q in op.qubits:
                grid[q][cycle] = symbol
    width = max((len(f"q{q}") for q in qubits), default=2)
    lines = [f"occupancy (first {cycles} of {encoded.num_cycles} cycles)"]
    for q in qubits:
        lines.append(f"q{q}".rjust(width) + " " + "".join(grid[q]))
    return "\n".join(lines) + "\n"
