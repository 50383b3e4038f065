"""Cut-type scheduling decisions for the double defect model.

When Algorithm 1 reaches a CNOT whose two tiles currently share a cut type it
must choose between

* **direct execution** — three clock cycles using the tile's ancilla qubit,
  occupying a channel path for the whole duration, and
* **cut-type modification** — three tile-local cycles (which can overlap
  cycles the tile has already spent idle) followed by a one-cycle braid.

The paper scores both options with an *M-value* ``M = Mt + θ·Ms`` per operand
tile, where ``Mt`` is the time impact, ``Ms`` the channel-occupation impact
weighted by a look-ahead over the gate's children, and
``θ = (|ready gates| · 2) / (bandwidth · n)`` adapts the weighting to the
current congestion.  Modification is chosen when the smaller of the two
M-values is negative (Algorithm 1, lines 14–23).

The alternative strategies of Table V are also provided: *Time-first* always
minimises the completion time of the current gate and *Channel-first* always
minimises channel occupation (i.e. always modifies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.circuits.dag import GateDAG
from repro.core.cut_types import CutAssignment

#: Duration (cycles) of a direct same-cut CNOT via the tile's ancilla.
DIRECT_SAME_CUT_CYCLES = 3
#: Duration (cycles) of a tile-local cut-type modification.
MODIFICATION_CYCLES = 3
#: Channel braids used by a direct same-cut CNOT vs. after modification.
DIRECT_BRAIDS = 2
MODIFIED_BRAIDS = 1


@dataclass(frozen=True)
class CutContext:
    """Everything a decision strategy may inspect for one same-cut CNOT."""

    dag: GateDAG
    node: int
    qubit_a: int
    qubit_b: int
    cut_types: CutAssignment
    #: Cycles each operand tile has been idle before the current cycle.
    idle_a: int
    idle_b: int
    #: Number of currently ready gates (drives θ).
    ready_count: int
    #: Chip bandwidth and number of logical qubits (drive θ).
    bandwidth: int
    num_qubits: int

    def remaining_modification(self, qubit: int) -> int:
        """Modification cycles still needed after overlapping idle time."""
        idle = self.idle_a if qubit == self.qubit_a else self.idle_b
        return max(0, MODIFICATION_CYCLES - idle)

    def theta(self) -> float:
        """The adaptive weight θ of the paper."""
        return (self.ready_count * 2.0) / (max(1, self.bandwidth) * max(1, self.num_qubits))


@dataclass(frozen=True)
class CutDecision:
    """The outcome of a strategy: modify a tile, or execute directly."""

    modify: bool
    qubit: int | None = None  # the tile whose cut type is modified


#: A strategy maps a context to a decision.
CutDecisionStrategy = Callable[[CutContext], CutDecision]


def _look_ahead_channel_impact(context: CutContext, qubit: int) -> float:
    """Channel-impact term ``Ms`` for flipping ``qubit``'s cut type.

    Starts from the immediate saving (one braid instead of two for the current
    gate) and adds a look-ahead over the not-yet-executed children of the gate
    that involve ``qubit``: children whose partner currently has the *same*
    cut type as ``qubit`` will also become single-braid CNOTs after the flip
    (negative contribution); children whose partner already differs would be
    hurt by the flip (positive contribution).
    """
    impact = float(MODIFIED_BRAIDS - DIRECT_BRAIDS)  # -1: the current gate gets cheaper
    current = context.cut_types[qubit]
    for child in context.dag.successors(context.node):
        control, target = context.dag.operands(child)
        if qubit != control and qubit != target:
            continue
        partner = control if target == qubit else target
        if context.cut_types[partner] == current:
            impact -= 1.0
        else:
            impact += 1.0
    return impact


def _time_impact(context: CutContext, qubit: int) -> float:
    """Time-impact term ``Mt``: modification completion vs direct completion."""
    modified_total = context.remaining_modification(qubit) + 1  # braid after the flip
    return float(modified_total - DIRECT_SAME_CUT_CYCLES)


def m_value(context: CutContext, qubit: int) -> float:
    """The M-value of modifying ``qubit``'s tile for the current gate."""
    return _time_impact(context, qubit) + context.theta() * _look_ahead_channel_impact(context, qubit)


def adaptive_strategy(context: CutContext) -> CutDecision:
    """The paper's strategy: modify the tile with the smaller M-value if it is negative."""
    value_a = m_value(context, context.qubit_a)
    value_b = m_value(context, context.qubit_b)
    if value_a <= value_b:
        best_value, best_qubit = value_a, context.qubit_a
    else:
        best_value, best_qubit = value_b, context.qubit_b
    if best_value < 0:
        return CutDecision(modify=True, qubit=best_qubit)
    return CutDecision(modify=False)


def time_first_strategy(context: CutContext) -> CutDecision:
    """Table V "Time-first": minimise the completion time of the current gate."""
    best_qubit = min(
        (context.qubit_a, context.qubit_b), key=lambda q: context.remaining_modification(q)
    )
    modified_total = context.remaining_modification(best_qubit) + 1
    if modified_total < DIRECT_SAME_CUT_CYCLES:
        return CutDecision(modify=True, qubit=best_qubit)
    return CutDecision(modify=False)


def channel_first_strategy(context: CutContext) -> CutDecision:
    """Table V "Channel-first": always minimise channel occupation (always modify)."""
    best_qubit = min(
        (context.qubit_a, context.qubit_b), key=lambda q: context.remaining_modification(q)
    )
    return CutDecision(modify=True, qubit=best_qubit)


def never_modify_strategy(context: CutContext) -> CutDecision:
    """Baselines without cut-type awareness (AutoBraid / Braidflash): always direct."""
    return CutDecision(modify=False)


STRATEGIES: dict[str, CutDecisionStrategy] = {
    "adaptive": adaptive_strategy,
    "time_first": time_first_strategy,
    "channel_first": channel_first_strategy,
    "never_modify": never_modify_strategy,
}


def get_strategy(name: str) -> CutDecisionStrategy:
    """Look up a strategy by name."""
    try:
        return STRATEGIES[name]
    except KeyError as exc:
        raise KeyError(f"unknown cut decision strategy {name!r}; options: {sorted(STRATEGIES)}") from exc
