"""Weighted qubit communication graph (``G_C`` in the paper, Fig. 6c).

Vertices are logical qubits; an edge ``(a, b)`` with weight ``w`` means the
circuit contains ``w`` CNOT gates between qubits ``a`` and ``b`` (in either
direction).  The mapping stage partitions this graph, and the cut-type
initialisation checks bipartiteness of prefixes of it.
"""

from __future__ import annotations

from collections import deque

from repro.circuits.circuit import Circuit
from repro.errors import CircuitError


class CommunicationGraph:
    """Undirected weighted multigraph-as-weights over logical qubits."""

    def __init__(self, num_qubits: int):
        if num_qubits <= 0:
            raise CircuitError("communication graph needs at least one qubit")
        self._num_qubits = num_qubits
        self._weights: dict[tuple[int, int], int] = {}
        self._adjacency: list[set[int]] = [set() for _ in range(num_qubits)]

    # ----------------------------------------------------------- construction
    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CommunicationGraph":
        """Aggregate CNOT gates of ``circuit`` into edge weights."""
        graph = cls(circuit.num_qubits)
        for gate in circuit.cnot_gates():
            graph.add_cnot(gate.control, gate.target)
        return graph

    def add_cnot(self, control: int, target: int, count: int = 1) -> None:
        """Record ``count`` CNOT gates between ``control`` and ``target``."""
        if control == target:
            raise CircuitError("CNOT control and target must differ")
        for q in (control, target):
            if not 0 <= q < self._num_qubits:
                raise CircuitError(f"qubit {q} outside communication graph of size {self._num_qubits}")
        key = (min(control, target), max(control, target))
        self._weights[key] = self._weights.get(key, 0) + count
        self._adjacency[control].add(target)
        self._adjacency[target].add(control)

    # ---------------------------------------------------------------- queries
    @property
    def num_qubits(self) -> int:
        """Number of vertices."""
        return self._num_qubits

    @property
    def num_edges(self) -> int:
        """Number of distinct qubit pairs with at least one CNOT."""
        return len(self._weights)

    def weight(self, a: int, b: int) -> int:
        """Number of CNOTs between ``a`` and ``b`` (0 if none)."""
        return self._weights.get((min(a, b), max(a, b)), 0)

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as ``(a, b, weight)`` with ``a < b``."""
        return tuple((a, b, w) for (a, b), w in sorted(self._weights.items()))

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        """Qubits that share at least one CNOT with ``qubit``."""
        return tuple(sorted(self._adjacency[qubit]))

    def degree(self, qubit: int) -> int:
        """Number of distinct communication partners of ``qubit``."""
        return len(self._adjacency[qubit])

    def total_weight(self) -> int:
        """Total number of CNOT gates represented."""
        return sum(self._weights.values())

    # ------------------------------------------------------------ bipartiteness
    def is_bipartite(self) -> bool:
        """True when the graph admits a 2-colouring (ignoring isolated vertices)."""
        return self.bipartition() is not None

    def bipartition(self) -> tuple[set[int], set[int]] | None:
        """A 2-colouring as two vertex sets, or ``None`` if not bipartite.

        Isolated vertices are placed in the first set.  This is the structure
        the cut-type initialisation consumes: qubits in the same set receive
        the same cut type.
        """
        color: dict[int, int] = {}
        for start in range(self._num_qubits):
            if start in color:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                node = queue.popleft()
                for neighbor in self._adjacency[node]:
                    if neighbor not in color:
                        color[neighbor] = 1 - color[node]
                        queue.append(neighbor)
                    elif color[neighbor] == color[node]:
                        return None
        side_a = {q for q, c in color.items() if c == 0}
        side_b = {q for q, c in color.items() if c == 1}
        return side_a, side_b

    # ------------------------------------------------------------------ export
    def to_networkx(self):
        """Export as a weighted :mod:`networkx` Graph (attribute ``weight``)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_qubits))
        for (a, b), w in self._weights.items():
            graph.add_edge(a, b, weight=w)
        return graph

    def __repr__(self) -> str:
        return (
            f"CommunicationGraph(num_qubits={self._num_qubits}, "
            f"edges={self.num_edges}, total_weight={self.total_weight()})"
        )
