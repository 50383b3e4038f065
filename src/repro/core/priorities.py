"""Gate prioritisation for Algorithm 1 (scheduling for limited resources).

The paper prioritises ready gates by *criticality* — the length of the
critical path of the remaining gates hanging off the gate — and breaks ties
by the *remaining gate count* (how many gates transitively depend on it), so
that bottleneck gates go first and non-congested cycles are used well.

A priority is a sort key
------------------------
A priority is a function ``key(dag, node) -> tuple``: among the ready gates
whose operand tiles are free, the smallest key is offered first.  A node's
key depends only on per-node quantities the DAG computes once at
construction, so it never changes during a schedule.  That lets the
schedulers keep the ready set permanently sorted — updated on gate
dispatch and retirement — instead of re-sorting it every cycle
(:class:`~repro.core.incremental.IncrementalReadyQueue`).  Every built-in
key ends with the node id, so no two gates ever tie.
"""

from __future__ import annotations

from typing import Callable

from repro.circuits.dag import GateDAG

#: A gate priority: smaller keys are scheduled first; fixed for the schedule.
PriorityKey = Callable[[GateDAG, int], tuple]


def criticality_priority(dag: GateDAG, node: int) -> tuple:
    """The paper's priority: criticality first, then descendant count, then id."""
    return (-dag.criticality(node), -dag.descendant_count(node), node)


def circuit_order_priority(dag: GateDAG, node: int) -> tuple:
    """The Table IV "Circuit-order" baseline: schedule in program order."""
    return (node,)


def descendant_priority(dag: GateDAG, node: int) -> tuple:
    """Descendant count first (ablation variant)."""
    return (-dag.descendant_count(node), -dag.criticality(node), node)
