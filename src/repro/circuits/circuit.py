"""The :class:`Circuit` container.

A circuit is an ordered list of gates over ``n`` logical qubits.  The Ecmas
pipeline cares about the CNOT sub-circuit: :meth:`Circuit.cnot_circuit`
extracts it while preserving gate order, and :meth:`Circuit.dag` /
:meth:`Circuit.communication_graph` build the two derived representations
from Fig. 6 of the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.circuits.gate import CNOT_NAMES, Gate, GateKind
from repro.errors import CircuitError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.circuits.comm_graph import CommunicationGraph
    from repro.circuits.dag import GateDAG


class Circuit:
    """An ordered quantum circuit over ``num_qubits`` logical qubits.

    Parameters
    ----------
    num_qubits:
        Number of logical qubits.  Gates may only reference indices below it.
    gates:
        Optional iterable of gates appended in order.
    name:
        Human-readable circuit name used in reports and benchmarks.
    """

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = (), name: str = "circuit"):
        if num_qubits <= 0:
            raise CircuitError(f"a circuit needs at least one qubit, got {num_qubits}")
        self._num_qubits = int(num_qubits)
        self._gates: list[Gate] = []
        self.name = name
        for gate in gates:
            self.append(gate)

    # ------------------------------------------------------------------ basics
    @property
    def num_qubits(self) -> int:
        """Number of logical qubits."""
        return self._num_qubits

    @property
    def gates(self) -> tuple[Gate, ...]:
        """All gates in program order."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self._num_qubits == other._num_qubits
            and [(g.name, g.qubits, g.params) for g in self._gates]
            == [(g.name, g.qubits, g.params) for g in other._gates]
        )

    def __repr__(self) -> str:
        return f"Circuit(name={self.name!r}, num_qubits={self._num_qubits}, gates={len(self._gates)})"

    # --------------------------------------------------------------- mutation
    def append(self, gate: Gate) -> Gate:
        """Append ``gate``, validating its qubit indices; returns the stored gate."""
        return self.add(gate.name, gate.qubits, gate.params)

    def add(self, name: str, qubits: tuple[int, ...], params: tuple[float, ...] = ()) -> Gate:
        """Append the gate ``name`` on ``qubits``, built once with its index; returns it."""
        gate = Gate(name, qubits, params, len(self._gates))
        if max(qubits) >= self._num_qubits:
            raise CircuitError(
                f"gate {gate} references qubit {max(qubits)} but the circuit has "
                f"only {self._num_qubits} qubits"
            )
        self._gates.append(gate)
        return gate

    def extend(self, gates: Iterable[Gate]) -> None:
        """Append every gate in ``gates`` in order."""
        for gate in gates:
            self.append(gate)

    def cx(self, control: int, target: int) -> Gate:
        """Append a CNOT gate."""
        if control == target:
            raise CircuitError("CNOT control and target must differ")
        return self.add("cx", (control, target))

    def add_single(self, name: str, qubit: int, *params: float) -> Gate:
        """Append a single-qubit gate."""
        return self.add(name, (qubit,), params)

    # ------------------------------------------------------------- derived IR
    def cnot_gates(self) -> tuple[Gate, ...]:
        """The CNOT gates of the circuit in program order."""
        return tuple(g for g in self._gates if g.name in CNOT_NAMES)

    def cnot_circuit(self, name: str | None = None) -> "Circuit":
        """Return a new circuit containing only the CNOT gates.

        This is the circuit ``P`` the paper schedules: single-qubit gates are
        executed locally in tiles and do not constrain communication.
        """
        return Circuit(self._num_qubits, self.cnot_gates(), name=name or f"{self.name}-cnot")

    def dag(self) -> "GateDAG":
        """Dependency DAG ``G_P`` over the CNOT gates (Fig. 6b)."""
        from repro.circuits.dag import GateDAG

        return GateDAG.from_circuit(self)

    def communication_graph(self) -> "CommunicationGraph":
        """Weighted communication graph ``G_C`` (Fig. 6c)."""
        from repro.circuits.comm_graph import CommunicationGraph

        return CommunicationGraph.from_circuit(self)

    # ------------------------------------------------------------- statistics
    @property
    def num_cnots(self) -> int:
        """Number of CNOT gates (``g`` in the paper's tables)."""
        return sum(1 for g in self._gates if g.name in CNOT_NAMES)

    def depth(self, cnot_only: bool = True) -> int:
        """Circuit depth.

        With ``cnot_only=True`` (the default) this is the critical-path length
        ``α`` over CNOT gates used throughout the paper.
        """
        level: dict[int, int] = {}
        depth = 0
        for gate in self._gates:
            if cnot_only and not gate.is_cnot:
                continue
            if gate.kind is GateKind.BARRIER:
                continue
            gate_level = 1 + max((level.get(q, 0) for q in gate.qubits), default=0)
            for q in gate.qubits:
                level[q] = gate_level
            depth = max(depth, gate_level)
        return depth

    def used_qubits(self) -> set[int]:
        """Set of qubit indices referenced by at least one gate."""
        used: set[int] = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return used

    def gate_counts(self) -> dict[str, int]:
        """Histogram of gate names."""
        counts: dict[str, int] = {}
        for gate in self._gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    # --------------------------------------------------------------- rewriting
    def remapped(self, mapping: dict[int, int], num_qubits: int | None = None) -> "Circuit":
        """Return a copy of the circuit with qubits renamed through ``mapping``."""
        new_size = num_qubits if num_qubits is not None else self._num_qubits
        remapped = Circuit(new_size, name=self.name)
        for gate in self._gates:
            remapped.append(gate.remapped(mapping))
        return remapped

    def reversed(self) -> "Circuit":
        """Return the circuit with gate order reversed (useful for tests)."""
        return Circuit(self._num_qubits, reversed(self._gates), name=f"{self.name}-reversed")

    def copy(self, name: str | None = None) -> "Circuit":
        """Shallow copy (gates are immutable, so this is effectively deep)."""
        return Circuit(self._num_qubits, self._gates, name=name or self.name)

    def compose(self, other: "Circuit") -> "Circuit":
        """Return a new circuit running ``self`` then ``other`` on shared qubits."""
        size = max(self._num_qubits, other._num_qubits)
        combined = Circuit(size, name=f"{self.name}+{other.name}")
        combined.extend(Gate(g.name, g.qubits, g.params) for g in self._gates)
        combined.extend(Gate(g.name, g.qubits, g.params) for g in other._gates)
        return combined
