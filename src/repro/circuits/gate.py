"""Gate-level intermediate representation.

The Ecmas transformation only needs to reason about CNOT gates (every
single-qubit gate is executed locally inside a tile, see Section III of the
paper), but the QASM front-end and the benchmark generators produce full
circuits.  The IR therefore keeps every gate, tagging each with enough
structure for the scheduler to extract the CNOT dependency DAG.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import CircuitError


class GateKind(enum.Enum):
    """Coarse classification of gates used by the transformation pipeline."""

    SINGLE_QUBIT = "single"
    CNOT = "cnot"
    TWO_QUBIT_OTHER = "two_other"
    MEASUREMENT = "measure"
    BARRIER = "barrier"


#: Names that the QASM front-end and the generators recognise as single-qubit.
SINGLE_QUBIT_NAMES = frozenset(
    {
        "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg",
        "rx", "ry", "rz", "u1", "u2", "u3", "u", "p", "sx", "sxdg",
    }
)

#: Two-qubit names that are rewritten to CNOT-based decompositions.
TWO_QUBIT_NAMES = frozenset({"cx", "cnot", "cz", "swap", "ch", "crz", "cry", "crx", "cu1", "cp", "cu3", "rzz", "rxx"})

#: Three-qubit names that the expander decomposes.
THREE_QUBIT_NAMES = frozenset({"ccx", "toffoli", "cswap", "fredkin"})

#: Names classified as :attr:`GateKind.CNOT` (the one name test every CNOT
#: filter uses).
CNOT_NAMES = ("cx", "cnot")


@dataclass(frozen=True, init=False, slots=True)
class Gate:
    """A single gate instance in a :class:`~repro.circuits.circuit.Circuit`.

    Attributes
    ----------
    name:
        Lower-case gate name, e.g. ``"cx"`` or ``"h"``.
    qubits:
        Tuple of logical qubit indices the gate acts on.  For CNOT gates the
        order is ``(control, target)``.
    params:
        Tuple of float parameters (rotation angles).  Kept for round-tripping
        QASM; ignored by the scheduler.
    index:
        Position of the gate in the owning circuit, assigned by the circuit.
        ``-1`` for free-standing gates.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())
    index: int = -1

    def __init__(
        self, name: str, qubits: tuple[int, ...], params: tuple[float, ...] = (), index: int = -1
    ) -> None:
        # Circuits are built gate by gate, so the one- and two-qubit cases
        # are checked inline rather than through set() and min().
        arity = len(qubits)
        if arity == 1:
            if qubits[0] < 0:
                raise CircuitError(f"gate {name!r} has a negative qubit index {qubits}")
            if name in CNOT_NAMES:
                raise CircuitError(f"CNOT gate {name!r} needs exactly two qubits, got {qubits}")
        elif arity == 2:
            first, second = qubits
            if first == second:
                raise CircuitError(f"gate {name!r} has repeated qubit operands {qubits}")
            if first < 0 or second < 0:
                raise CircuitError(f"gate {name!r} has a negative qubit index {qubits}")
        else:
            _check_operands(name, qubits)
        setattr_ = object.__setattr__  # the dataclass is frozen
        setattr_(self, "name", name)
        setattr_(self, "qubits", qubits)
        setattr_(self, "params", params)
        setattr_(self, "index", index)

    @property
    def kind(self) -> GateKind:
        """Classify this gate for the transformation pipeline."""
        name = self.name
        if name in CNOT_NAMES:
            return GateKind.CNOT
        if name == "barrier":
            return GateKind.BARRIER
        if name in ("measure", "reset"):
            return GateKind.MEASUREMENT
        if len(self.qubits) == 1:
            return GateKind.SINGLE_QUBIT
        return GateKind.TWO_QUBIT_OTHER

    @property
    def is_cnot(self) -> bool:
        """True when this is a CNOT gate (``cx``)."""
        return self.kind is GateKind.CNOT

    @property
    def control(self) -> int:
        """Control qubit of a CNOT gate."""
        if not self.is_cnot:
            raise CircuitError(f"gate {self.name!r} has no control qubit")
        return self.qubits[0]

    @property
    def target(self) -> int:
        """Target qubit of a CNOT gate."""
        if not self.is_cnot:
            raise CircuitError(f"gate {self.name!r} has no target qubit")
        return self.qubits[1]

    def with_index(self, index: int) -> "Gate":
        """Return a copy of this gate tagged with a circuit position."""
        return Gate(self.name, self.qubits, self.params, index)

    def remapped(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy with qubits renamed through ``mapping``."""
        try:
            qubits = tuple(mapping[q] for q in self.qubits)
        except KeyError as exc:
            raise CircuitError(f"qubit {exc.args[0]} missing from remapping") from exc
        return Gate(self.name, qubits, self.params, self.index)

    def __str__(self) -> str:
        params = ""
        if self.params:
            params = "(" + ", ".join(f"{p:g}" for p in self.params) + ")"
        qubits = ", ".join(f"q{q}" for q in self.qubits)
        return f"{self.name}{params} {qubits}"


def _check_operands(name: str, qubits: tuple[int, ...]) -> None:
    """The operand checks of a gate on no qubit or on three or more."""
    if not qubits:
        raise CircuitError(f"gate {name!r} must act on at least one qubit")
    if len(set(qubits)) != len(qubits):
        raise CircuitError(f"gate {name!r} has repeated qubit operands {qubits}")
    if min(qubits) < 0:
        raise CircuitError(f"gate {name!r} has a negative qubit index {qubits}")
    if name in CNOT_NAMES:
        raise CircuitError(f"CNOT gate {name!r} needs exactly two qubits, got {qubits}")


def cnot(control: int, target: int) -> Gate:
    """Convenience constructor for a CNOT gate."""
    if control == target:
        raise CircuitError("CNOT control and target must differ")
    return Gate("cx", (control, target))


def single(name: str, qubit: int, *params: float) -> Gate:
    """Convenience constructor for a single-qubit gate."""
    return Gate(name, (qubit,), tuple(params))
