"""Cut-type initialisation for the double defect model.

In the double defect model every tile holds either an X-cut or a Z-cut
logical qubit.  A CNOT between tiles of *different* cut types costs one clock
cycle (a single braid); between tiles of the *same* cut type it costs three
cycles directly or a cut-type modification (three tile-local cycles) plus a
one-cycle braid.

The paper's initialisation (Section IV-C1) greedily builds a bipartite prefix
of the communication graph: gates are added in dependency order until the
accumulated sub-graph stops being bipartite, and the 2-colouring of that
prefix fixes the initial cut types.  This prioritises the front of the
circuit, which is what matters because cut types can be modified later.

Baselines for the Table III ablation:

* :func:`random_cut_types` — uniformly random assignment,
* :func:`maxcut_cut_types` — a local-search max-cut over the whole weighted
  communication graph (the "max-cut" column of Table III).
"""

from __future__ import annotations

import enum
import random
from collections.abc import Iterable

from repro.circuits.comm_graph import CommunicationGraph, two_colouring
from repro.circuits.dag import GateDAG
from repro.errors import MappingError


class CutType(enum.Enum):
    """The two defect types a double-defect tile can be initialised into."""

    X = "x"
    Z = "z"

    def flipped(self) -> "CutType":
        """The opposite cut type."""
        return CutType.Z if self is CutType.X else CutType.X


CutAssignment = dict[int, CutType]


def with_cnot_edges(
    adjacency: dict[int, set[int]], pairs: Iterable[tuple[int, int]]
) -> dict[int, set[int]]:
    """A copy of ``adjacency`` with each ``(control, target)`` pair added as an edge."""
    extended = {q: set(neighbors) for q, neighbors in adjacency.items()}
    for a, b in pairs:
        extended.setdefault(a, set()).add(b)
        extended.setdefault(b, set()).add(a)
    return extended


def _color_components(adjacency: dict[int, set[int]], num_qubits: int) -> CutAssignment | None:
    """2-colour the graph as cut types; ``None`` when it is not bipartite."""
    colors = two_colouring(adjacency, range(num_qubits))
    if colors is None:
        return None
    return {q: (CutType.X if colors[q] == 0 else CutType.Z) for q in range(num_qubits)}


def bipartite_prefix_cut_types(dag: GateDAG, num_qubits: int) -> CutAssignment:
    """The paper's greedy bipartite-prefix initialisation.

    Gates are consumed front-to-back (peeling DAG sources layer by layer) and
    their edges added to a growing sub-graph of the communication graph; the
    process stops just before the sub-graph would stop being bipartite, and
    the 2-colouring of the accumulated prefix becomes the cut assignment.
    """
    if num_qubits <= 0:
        raise MappingError("cut-type initialisation needs at least one qubit")
    adjacency: dict[int, set[int]] = {}
    best = _color_components(adjacency, num_qubits)
    assert best is not None  # empty graph is bipartite

    frontier = dag.frontier()
    while not frontier.is_done():
        ready = frontier.ready_nodes()
        # Tentatively add this whole front layer of gates.
        trial = with_cnot_edges(adjacency, [dag.operands(node) for node in ready])
        colored = _color_components(trial, num_qubits)
        if colored is None:
            # Adding this layer breaks bipartiteness; try gate-by-gate so the
            # earliest possible gates still influence the colouring.
            for node in ready:
                candidate = with_cnot_edges(adjacency, [dag.operands(node)])
                colored_single = _color_components(candidate, num_qubits)
                if colored_single is None:
                    continue
                adjacency = candidate
                best = colored_single
            break
        adjacency = trial
        best = colored
        for node in ready:
            frontier.complete(node)
    return best


def cut_types_from_bipartition(sides: tuple[set[int], set[int]], num_qubits: int) -> CutAssignment:
    """Turn an explicit bipartition into a cut assignment (X for the first side)."""
    assignment: CutAssignment = {}
    side_a, side_b = sides
    for qubit in range(num_qubits):
        if qubit in side_a:
            assignment[qubit] = CutType.X
        elif qubit in side_b:
            assignment[qubit] = CutType.Z
        else:
            assignment[qubit] = CutType.X
    return assignment


def random_cut_types(num_qubits: int, seed: int | None = None) -> CutAssignment:
    """The Table III "Random" baseline."""
    rng = random.Random(seed)
    return {q: (CutType.X if rng.random() < 0.5 else CutType.Z) for q in range(num_qubits)}


def uniform_cut_types(num_qubits: int, cut: CutType = CutType.X) -> CutAssignment:
    """Every tile gets the same cut type (the AutoBraid / Braidflash assumption)."""
    return {q: cut for q in range(num_qubits)}


def maxcut_cut_types(graph: CommunicationGraph, seed: int | None = None, passes: int = 4) -> CutAssignment:
    """The Table III "Max-cut" baseline: one-exchange local search on the weighted graph.

    Maximises the total weight of CNOT edges whose endpoints get different cut
    types (so those CNOTs execute in one cycle), without regard to *when* the
    gates occur — which is exactly the weakness the paper points out.
    """
    rng = random.Random(seed)
    num_qubits = graph.num_qubits
    side = {q: rng.random() < 0.5 for q in range(num_qubits)}
    improved = True
    for _ in range(passes):
        if not improved:
            break
        improved = False
        for qubit in range(num_qubits):
            gain = 0
            for neighbor in graph.neighbors(qubit):
                weight = graph.weight(qubit, neighbor)
                if side[qubit] == side[neighbor]:
                    gain += weight
                else:
                    gain -= weight
            if gain > 0:
                side[qubit] = not side[qubit]
                improved = True
    return {q: (CutType.X if side[q] else CutType.Z) for q in range(num_qubits)}


def count_single_cycle_gates(dag: GateDAG, assignment: CutAssignment) -> int:
    """Number of CNOTs whose operands start with different cut types."""
    return sum(1 for control, target in dag.operand_pairs if assignment[control] != assignment[target])
