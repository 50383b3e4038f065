"""Reference builders for the profile stage's two circuit representations.

The production :class:`~repro.circuits.dag.GateDAG` builds its edges from the
flat CNOT operand list with a per-qubit ``last`` array and derives every level
from one forward and one backward sweep over node ids; the production
:class:`~repro.circuits.comm_graph.CommunicationGraph` bulk-counts the same
list.  The builders here are the obviously-correct counterparts:

* :func:`reference_dag_fields` walks ``Gate`` objects, collects each gate's
  parents into a set and sorts it, and computes ASAP, ALAP, criticality and
  descendant counts over a Kahn topological order;
* :func:`reference_comm_graph` feeds every CNOT through the validating
  :meth:`~repro.circuits.comm_graph.CommunicationGraph.add_cnot`.
"""

from __future__ import annotations

from collections import deque

from repro.circuits.circuit import Circuit
from repro.circuits.comm_graph import CommunicationGraph

#: Same exact/approximate descendant-count switch as the production DAG.
EXACT_DESCENDANTS_MAX = 4096


def _kahn_order(succ: list[list[int]], pred: list[list[int]]) -> list[int]:
    indegree = [len(parents) for parents in pred]
    queue = deque(node for node in range(len(pred)) if indegree[node] == 0)
    order: list[int] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in succ[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    assert len(order) == len(pred), "dependency graph contains a cycle"
    return order


def reference_dag_fields(circuit: Circuit) -> dict[str, list]:
    """``succ``/``pred`` lists and per-node levels of the CNOT DAG of ``circuit``."""
    gates = [gate for gate in circuit.gates if gate.is_cnot]
    n = len(gates)
    succ: list[list[int]] = [[] for _ in gates]
    pred: list[list[int]] = [[] for _ in gates]
    last_on_qubit: dict[int, int] = {}
    for node, gate in enumerate(gates):
        parents = {last_on_qubit[q] for q in gate.qubits if q in last_on_qubit}
        for parent in sorted(parents):
            succ[parent].append(node)
            pred[node].append(parent)
        for q in gate.qubits:
            last_on_qubit[q] = node

    order = _kahn_order(succ, pred)
    asap = [0] * n
    for node in order:
        asap[node] = 1 + max((asap[p] for p in pred[node]), default=0)
    depth = max(asap, default=0)
    alap = [depth] * n
    crit = [1] * n
    for node in reversed(order):
        alap[node] = min((alap[s] - 1 for s in succ[node]), default=depth)
        for child in succ[node]:
            crit[node] = max(crit[node], 1 + crit[child])
    if n <= EXACT_DESCENDANTS_MAX:
        masks = [0] * n
        for node in reversed(order):
            for child in succ[node]:
                masks[node] |= masks[child] | (1 << child)
        descendants = [mask.bit_count() for mask in masks]
    else:
        descendants = [0] * n
        for node in reversed(order):
            descendants[node] = sum(1 + descendants[s] for s in succ[node])
    return {
        "succ": succ,
        "pred": pred,
        "asap": asap,
        "alap": alap,
        "criticality": crit,
        "descendants": descendants,
    }


def reference_comm_graph(circuit: Circuit) -> CommunicationGraph:
    """The communication graph built one validated ``add_cnot`` per CNOT."""
    graph = CommunicationGraph(circuit.num_qubits)
    for gate in circuit.gates:
        if gate.is_cnot:
            graph.add_cnot(gate.control, gate.target)
    return graph
