"""Gate prioritisation for Algorithm 1 (scheduling for limited resources).

The paper prioritises ready gates by *criticality* — the length of the
critical path of the remaining gates hanging off the gate — and breaks ties
by the *remaining gate count* (how many gates transitively depend on it), so
that bottleneck gates go first and non-congested cycles are used well.

Static sort keys
----------------
Each built-in priority's ordering depends only on per-node quantities that
the DAG computes once at construction, never on the cycle being scheduled.
Such priorities expose that key as a ``static_key(dag, node)`` attribute
(via :func:`static_priority`), which lets the schedulers keep the ready set
permanently sorted — updated on gate retirement — instead of re-sorting it
every cycle.  Priorities without a ``static_key`` (e.g. the seeded
:func:`random_priority` ablation) still work; the ready queue falls back to
calling them once per cycle, exactly as Algorithm 1 states it.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Callable

from repro.circuits.dag import GateDAG

#: A priority function orders ready DAG nodes; larger keys are scheduled first.
PriorityFunction = Callable[[GateDAG, Sequence[int]], list[int]]

#: A static key: smaller sorts first, and the value never changes mid-schedule.
StaticKeyFunction = Callable[[GateDAG, int], tuple]


def static_priority(key: StaticKeyFunction) -> Callable[[PriorityFunction], PriorityFunction]:
    """Attach a cycle-independent sort key to a priority function.

    The decorated function must order nodes exactly as ``sorted(ready,
    key=lambda n: key(dag, n))`` would — the schedulers rely on the two
    being interchangeable, and ``tests/test_differential_engines.py`` checks
    the schedules they produce are identical.
    """

    def decorate(priority: PriorityFunction) -> PriorityFunction:
        priority.static_key = key
        return priority

    return decorate


@static_priority(lambda dag, node: (-dag.criticality(node), -dag.descendant_count(node), node))
def criticality_priority(dag: GateDAG, ready: Sequence[int]) -> list[int]:
    """The paper's priority: criticality first, then descendant count, then id."""
    return sorted(
        ready,
        key=lambda node: (-dag.criticality(node), -dag.descendant_count(node), node),
    )


@static_priority(lambda dag, node: node)
def circuit_order_priority(dag: GateDAG, ready: Sequence[int]) -> list[int]:
    """The Table IV "Circuit-order" baseline: schedule in program order."""
    return sorted(ready)


@static_priority(lambda dag, node: (-dag.descendant_count(node), -dag.criticality(node), node))
def descendant_priority(dag: GateDAG, ready: Sequence[int]) -> list[int]:
    """Descendant count first (ablation variant)."""
    return sorted(ready, key=lambda node: (-dag.descendant_count(node), -dag.criticality(node), node))


def random_priority(seed: int = 0) -> PriorityFunction:
    """A seeded random order (ablation baseline)."""
    rng = random.Random(seed)

    def order(dag: GateDAG, ready: Sequence[int]) -> list[int]:
        nodes = list(ready)
        rng.shuffle(nodes)
        return nodes

    return order
