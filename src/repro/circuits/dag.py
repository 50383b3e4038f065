"""Dependency DAG over CNOT gates (``G_P`` in the paper, Fig. 6b).

Each node is a CNOT gate; an edge ``u -> v`` means ``v`` acts on a qubit that
``u`` acted on most recently before ``v`` in program order, so ``v`` may only
be scheduled after ``u``.  The DAG exposes the quantities the Ecmas algorithms
consume:

* ASAP / ALAP levels (``Low``/``High`` in Algorithm *Para-Finding*),
* the critical-path length ``α`` (circuit depth),
* per-gate *criticality* (length of the longest chain of descendants) and
  *descendant count*, which drive the gate priority of Algorithm 1,
* a :class:`DagFrontier` view that schedulers consume destructively.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.errors import CircuitError


#: Largest DAG whose descendant counts are exact (bitset masks); above it the
#: per-path sum of :meth:`GateDAG._sweep_backward` keeps memory linear.
EXACT_DESCENDANTS_MAX = 4096


class GateDAG:
    """Immutable dependency DAG over the CNOT gates of a circuit.

    Node ``i`` is the ``i``-th CNOT in program order.  Every edge goes from a
    lower to a higher node id, so ``range(n)`` is a topological order: ASAP
    levels come from one forward sweep, and ALAP levels, criticality and
    descendant counts from one backward sweep.
    """

    def __init__(self, num_qubits: int, gates: Iterable[Gate]):
        gates = tuple(gates)
        for node, gate in enumerate(gates):
            if not gate.is_cnot:
                raise CircuitError(f"GateDAG only accepts CNOT gates, got {gate} at position {node}")
            if max(gate.qubits) >= num_qubits:
                raise CircuitError(
                    f"gate {gate} at position {node} is outside a {num_qubits}-qubit DAG"
                )
        self._build(num_qubits, gates, [gate.qubits for gate in gates])

    # ----------------------------------------------------------- construction
    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "GateDAG":
        """Build the DAG from the CNOT gates of ``circuit``."""
        gates = circuit.cnot_gates()
        return cls.from_operands(circuit.num_qubits, [g.qubits for g in gates], gates)

    @classmethod
    def from_operands(
        cls, num_qubits: int, operands: list[tuple[int, int]], gates: tuple[Gate, ...]
    ) -> "GateDAG":
        """Build the DAG from a circuit's flat CNOT operand list.

        ``operands[i]`` is the ``(control, target)`` pair of ``gates[i]``.  No
        re-validation: :meth:`Circuit.append` and :class:`Gate` have already
        checked operand range, arity and distinctness.
        """
        dag = cls.__new__(cls)
        dag._build(num_qubits, gates, operands)
        return dag

    def _build(self, num_qubits: int, gates: tuple[Gate, ...], operands: list[tuple[int, int]]) -> None:
        self._num_qubits = num_qubits
        self._gates = gates
        # Flat (control, target) pairs: the scheduler inner loops read operands
        # every cycle, and the Gate property chain is measurably more expensive
        # than one list index.
        self._operands = operands
        n = len(operands)
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = []
        asap: list[int] = []
        last = [-1] * num_qubits  # node that most recently acted on each qubit
        for node, (a, b) in enumerate(operands):
            early, late = last[a], last[b]
            last[a] = last[b] = node
            if early > late:
                early, late = late, early
            if late < 0:  # first gate on both qubits
                pred.append([])
                asap.append(1)
            elif early < 0 or early == late:  # one parent
                succ[late].append(node)
                pred.append([late])
                asap.append(asap[late] + 1)
            else:  # two parents, in ascending order
                succ[early].append(node)
                succ[late].append(node)
                pred.append([early, late])
                asap.append(1 + max(asap[early], asap[late]))
        self._succ = succ
        self._pred = pred
        self._asap = asap
        self._sweep_backward()

    def _sweep_backward(self) -> None:
        """ALAP levels, criticality and descendant counts in one reverse sweep.

        Descendant counts are exact (bitset masks) for DAGs of at most
        :data:`EXACT_DESCENDANTS_MAX` gates.  Larger DAGs, where exact sets
        would be quadratic in memory, sum ``1 + count`` over each node's
        successors instead: a descendant reachable along several paths is
        counted once per path.  The priority key only needs a
        consistent ordering.
        """
        succ = self._succ
        n = len(succ)
        depth = self._depth = max(self._asap, default=0)
        alap = [depth] * n
        crit = [1] * n
        exact = n <= EXACT_DESCENDANTS_MAX
        reach = [0] * n  # descendant bitmask (exact) or per-path count
        for node in range(n - 1, -1, -1):
            children = succ[node]
            if not children:
                continue
            level, chain, acc = depth + 1, 0, 0
            for child in children:  # at most two: one per operand qubit
                if alap[child] < level:
                    level = alap[child]
                if crit[child] > chain:
                    chain = crit[child]
                if exact:
                    acc |= reach[child] | (1 << child)
                else:
                    acc += 1 + reach[child]
            alap[node] = level - 1
            crit[node] = chain + 1
            reach[node] = acc
        self._alap = alap
        self._criticality = crit
        self._descendant_count = [mask.bit_count() for mask in reach] if exact else reach

    # ---------------------------------------------------------------- queries
    @property
    def num_qubits(self) -> int:
        """Number of logical qubits of the underlying circuit."""
        return self._num_qubits

    @property
    def num_gates(self) -> int:
        """Number of CNOT gates (DAG nodes)."""
        return len(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def gate(self, node: int) -> Gate:
        """The gate stored at DAG node ``node``."""
        return self._gates[node]

    @property
    def gates(self) -> tuple[Gate, ...]:
        """All gates, indexed by node id."""
        return self._gates

    def operands(self, node: int) -> tuple[int, int]:
        """The (control, target) qubit pair of the CNOT at ``node``."""
        return self._operands[node]

    @property
    def operand_pairs(self) -> list[tuple[int, int]]:
        """All (control, target) pairs, indexed by node id (do not mutate)."""
        return self._operands

    def successors(self, node: int) -> tuple[int, ...]:
        """Direct successors (children) of ``node``."""
        return tuple(self._succ[node])

    def predecessors(self, node: int) -> tuple[int, ...]:
        """Direct predecessors (parents) of ``node``."""
        return tuple(self._pred[node])

    def sources(self) -> tuple[int, ...]:
        """Nodes with no predecessors (the initial front gates)."""
        return tuple(n for n in range(len(self._gates)) if not self._pred[n])

    def sinks(self) -> tuple[int, ...]:
        """Nodes with no successors."""
        return tuple(n for n in range(len(self._gates)) if not self._succ[n])

    # ------------------------------------------------------------------ levels
    def asap_level(self, node: int) -> int:
        """Earliest layer (1-based) in which ``node`` may execute."""
        return self._asap[node]

    def alap_level(self, node: int) -> int:
        """Latest layer (1-based) in which ``node`` may execute without extending depth."""
        return self._alap[node]

    def criticality(self, node: int) -> int:
        """Length of the longest dependency chain rooted at ``node`` (inclusive)."""
        return self._criticality[node]

    def descendant_count(self, node: int) -> int:
        """Number of gates that transitively depend on ``node``."""
        return self._descendant_count[node]

    def depth(self) -> int:
        """Critical-path length ``α`` of the CNOT circuit."""
        return self._depth

    def slack(self, node: int) -> int:
        """ALAP minus ASAP level; zero for critical gates."""
        return self._alap[node] - self._asap[node]

    # -------------------------------------------------------------- traversal
    def topological_order(self) -> Iterator[int]:
        """Yield node ids in a topological order (Kahn's algorithm)."""
        indegree = [len(p) for p in self._pred]
        queue = deque(n for n in range(len(self._gates)) if indegree[n] == 0)
        emitted = 0
        while queue:
            node = queue.popleft()
            emitted += 1
            yield node
            for succ in self._succ[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if emitted != len(self._gates):  # pragma: no cover - construction makes cycles impossible
            raise CircuitError("dependency graph contains a cycle")

    def asap_layers(self) -> list[list[int]]:
        """Nodes grouped by ASAP level; layer ``i`` is list index ``i`` (0-based)."""
        layers: list[list[int]] = [[] for _ in range(self.depth())]
        for node, level in enumerate(self._asap):
            layers[level - 1].append(node)
        return layers

    def frontier(self) -> "DagFrontier":
        """A fresh mutable scheduling view over this DAG."""
        return DagFrontier(self)

    def to_networkx(self):
        """Export as a :mod:`networkx` DiGraph (node attribute ``gate``)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node, gate in enumerate(self._gates):
            graph.add_node(node, gate=gate)
        for node, succs in enumerate(self._succ):
            for succ in succs:
                graph.add_edge(node, succ)
        return graph


class DagFrontier:
    """Mutable view of a :class:`GateDAG` used by schedulers.

    Tracks which gates have completed and exposes the *ready set* (gates whose
    predecessors have all completed).  Completing gates is the only mutation.
    """

    def __init__(self, dag: GateDAG):
        self._dag = dag
        self._remaining_preds = [len(parents) for parents in dag._pred]
        self._completed = [False] * len(dag)
        self._ready: set[int] = {n for n, count in enumerate(self._remaining_preds) if count == 0}
        self._num_completed = 0

    @property
    def dag(self) -> GateDAG:
        """The underlying immutable DAG."""
        return self._dag

    @property
    def num_remaining(self) -> int:
        """Number of gates not yet completed."""
        return len(self._dag) - self._num_completed

    def is_done(self) -> bool:
        """True when every gate has completed."""
        return self._num_completed == len(self._dag)

    def ready_nodes(self) -> tuple[int, ...]:
        """Currently schedulable nodes, in ascending node id order."""
        return tuple(sorted(self._ready))

    def is_ready(self, node: int) -> bool:
        """True if ``node`` is ready (all predecessors completed, itself not)."""
        return node in self._ready

    def is_completed(self, node: int) -> bool:
        """True if ``node`` has been completed."""
        return self._completed[node]

    def complete(self, node: int) -> tuple[int, ...]:
        """Mark ``node`` as executed; returns nodes that became ready."""
        if self._completed[node]:
            raise CircuitError(f"gate node {node} completed twice")
        if node not in self._ready:
            raise CircuitError(f"gate node {node} completed before its predecessors")
        self._ready.discard(node)
        self._completed[node] = True
        self._num_completed += 1
        newly_ready: list[int] = []
        for succ in self._dag.successors(node):
            self._remaining_preds[succ] -= 1
            if self._remaining_preds[succ] == 0:
                self._ready.add(succ)
                newly_ready.append(succ)
        return tuple(newly_ready)

    def remaining_nodes(self) -> tuple[int, ...]:
        """All nodes not yet completed."""
        return tuple(n for n in range(len(self._dag)) if not self._completed[n])
