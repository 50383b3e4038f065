"""Lowering from the OpenQASM AST to a :class:`~repro.circuits.circuit.Circuit`.

Responsibilities:

* allocate a flat logical-qubit index space across all ``qreg`` declarations,
* broadcast whole-register operands (``h q;`` applies ``h`` to every element),
* expand user ``gate`` definitions recursively with parameter binding,
* decompose the standard multi-qubit library gates (``cz``, ``swap``, ``ccx``,
  controlled rotations, ...) into CNOT + single-qubit gates, which is the
  gate set the surface-code transformation operates on,
* apply a policy for classically conditioned gates (the scheduler treats them
  like ordinary gates by default, matching how the paper counts CNOTs).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.circuits.circuit import Circuit
from repro.circuits.qasm import ast
from repro.errors import CircuitError, QasmError

#: Gates taken as primitive by the expander (single-qubit set + CNOT).
PRIMITIVE_GATES = frozenset(
    {
        "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg",
        "rx", "ry", "rz", "p", "u1", "u2", "u3", "u", "cx",
        "measure", "reset", "barrier",
    }
)


@dataclass
class _Registers:
    """Flat index allocation for quantum registers."""

    offsets: dict[str, int]
    sizes: dict[str, int]
    total: int

    def resolve(self, ref: ast.QubitRef) -> list[int]:
        if ref.register not in self.offsets:
            raise QasmError(f"unknown quantum register {ref.register!r}")
        offset = self.offsets[ref.register]
        size = self.sizes[ref.register]
        if ref.index is None:
            return [offset + i for i in range(size)]
        if not 0 <= ref.index < size:
            raise QasmError(f"index {ref.index} out of range for register {ref.register!r}[{size}]")
        return [offset + ref.index]


class QasmExpander:
    """Expands a parsed program into a flat CNOT + single-qubit circuit."""

    def __init__(self, program: ast.Program, include_conditional: bool = True, name: str = "qasm"):
        self._program = program
        self._include_conditional = include_conditional
        self._name = name
        self._definitions = program.gate_definitions()
        self._registers = self._allocate_registers()
        self._circuit = Circuit(max(self._registers.total, 1), name=name)

    def _allocate_registers(self) -> _Registers:
        offsets: dict[str, int] = {}
        sizes: dict[str, int] = {}
        total = 0
        for decl in self._program.quantum_registers():
            if decl.name in offsets:
                raise QasmError(f"quantum register {decl.name!r} declared twice")
            offsets[decl.name] = total
            sizes[decl.name] = decl.size
            total += decl.size
        return _Registers(offsets, sizes, total)

    # -------------------------------------------------------------------- run
    def expand(self) -> Circuit:
        """Produce the flattened circuit."""
        for statement in self._program.statements:
            self._expand_statement(statement)
        return self._circuit

    def _expand_statement(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.GateCall):
            self._expand_call(statement)
            return
        if isinstance(statement, (ast.Include, ast.RegisterDecl, ast.GateDefinition, ast.OpaqueDeclaration)):
            return
        if isinstance(statement, (ast.Measure, ast.Reset)):
            name = "measure" if isinstance(statement, ast.Measure) else "reset"
            for qubit in self._registers.resolve(statement.qubit):
                self._circuit.add(name, (qubit,))
            return
        if isinstance(statement, ast.Barrier):
            return
        if isinstance(statement, ast.Conditional):
            if self._include_conditional:
                self._expand_statement(statement.body)
            return
        raise QasmError(f"unsupported statement {type(statement).__name__}")

    # --------------------------------------------------------------- gate calls
    def _expand_call(self, call: ast.GateCall) -> None:
        try:
            params = [expr.evaluate({}) for expr in call.params]
            operand_lists = [self._registers.resolve(ref) for ref in call.qubits]
            for operands in _broadcast(operand_lists, call.name, call.line):
                self._emit(call.name, params, operands)
        except RecursionError:
            raise QasmError(f"gate {call.name!r} expands without end or too deeply", line=call.line) from None
        except CircuitError as exc:
            raise QasmError(str(exc), line=call.line) from None
        except (ArithmeticError, ValueError) as exc:
            raise QasmError(f"cannot evaluate a parameter of {call.name!r}: {exc}", line=call.line) from None

    def _emit(self, name: str, params: list[float], qubits: tuple[int, ...]) -> None:
        if len(set(qubits)) != len(qubits):
            # Broadcasting or a malformed file can produce a self-targeting
            # two-qubit gate; such a gate is the identity on the CNOT DAG and
            # is dropped rather than crashing the whole benchmark.
            return
        definition = self._definitions.get(name)
        if definition is not None:
            self._emit_definition(definition, params, qubits)
            return
        if name in PRIMITIVE_GATES:
            self._circuit.add(name, qubits, tuple(params))
            return
        decomposition = _STD_DECOMPOSITIONS.get(name)
        if decomposition is None:
            # Unknown opaque gate: treat any two-qubit unknown as one CNOT of
            # communication, and ignore unknown single-qubit gates.
            if len(qubits) == 2:
                self._circuit.add("cx", qubits)
                return
            if len(qubits) == 1:
                self._circuit.add("u", qubits, tuple(params))
                return
            raise QasmError(f"unknown gate {name!r} on {len(qubits)} qubits")
        for sub_name, sub_params, sub_qubit_indices in decomposition(params):
            self._emit(sub_name, sub_params, tuple([qubits[i] for i in sub_qubit_indices]))

    def _emit_definition(self, definition: ast.GateDefinition, params: list[float], qubits: tuple[int, ...]) -> None:
        if len(params) != len(definition.params):
            raise QasmError(
                f"gate {definition.name!r} expects {len(definition.params)} parameters, got {len(params)}"
            )
        if len(qubits) != len(definition.qubits):
            raise QasmError(
                f"gate {definition.name!r} expects {len(definition.qubits)} qubits, got {len(qubits)}"
            )
        bindings = dict(zip(definition.params, params))
        qubit_map = dict(zip(definition.qubits, qubits))
        for call in definition.body:
            sub_params = [expr.evaluate(bindings) for expr in call.params]
            sub_qubits = []
            for ref in call.qubits:
                if ref.register not in qubit_map:
                    raise QasmError(f"gate body of {definition.name!r} references unknown qubit {ref.register!r}")
                sub_qubits.append(qubit_map[ref.register])
            self._emit(call.name, sub_params, tuple(sub_qubits))


def _broadcast(operand_lists: list[list[int]], name: str, line: int) -> Iterator[tuple[int, ...]]:
    """OpenQASM register broadcasting: whole registers are zipped element-wise."""
    lengths = set(map(len, operand_lists))
    if len(lengths) > 1:
        lengths.discard(1)
        if len(lengths) > 1:
            raise QasmError(f"mismatched register sizes in broadcast of {name!r}", line=line)
        count = lengths.pop()
        operand_lists = [ops * count if len(ops) == 1 else ops for ops in operand_lists]
    return zip(*operand_lists)


# ------------------------------------------------------------------ decompositions
def _cz(params: list[float]):
    return [("h", [], [1]), ("cx", [], [0, 1]), ("h", [], [1])]


def _cy(params: list[float]):
    return [("sdg", [], [1]), ("cx", [], [0, 1]), ("s", [], [1])]


def _ch(params: list[float]):
    return [
        ("s", [], [1]), ("h", [], [1]), ("t", [], [1]),
        ("cx", [], [0, 1]),
        ("tdg", [], [1]), ("h", [], [1]), ("sdg", [], [1]),
    ]


def _swap(params: list[float]):
    return [("cx", [], [0, 1]), ("cx", [], [1, 0]), ("cx", [], [0, 1])]


def _iswap(params: list[float]):
    return [("s", [], [0]), ("s", [], [1]), ("h", [], [0])] + _swap(params) + [("h", [], [1])]


def _crz(params: list[float]):
    theta = params[0] if params else 0.0
    return [
        ("rz", [theta / 2], [1]),
        ("cx", [], [0, 1]),
        ("rz", [-theta / 2], [1]),
        ("cx", [], [0, 1]),
    ]


def _cry(params: list[float]):
    theta = params[0] if params else 0.0
    return [
        ("ry", [theta / 2], [1]),
        ("cx", [], [0, 1]),
        ("ry", [-theta / 2], [1]),
        ("cx", [], [0, 1]),
    ]


def _crx(params: list[float]):
    theta = params[0] if params else 0.0
    return [
        ("h", [], [1]),
        ("rz", [theta / 2], [1]),
        ("cx", [], [0, 1]),
        ("rz", [-theta / 2], [1]),
        ("cx", [], [0, 1]),
        ("h", [], [1]),
    ]


def _cu1(params: list[float]):
    lam = params[0] if params else 0.0
    return [
        ("u1", [lam / 2], [0]),
        ("cx", [], [0, 1]),
        ("u1", [-lam / 2], [1]),
        ("cx", [], [0, 1]),
        ("u1", [lam / 2], [1]),
    ]


def _cu3(params: list[float]):
    theta, phi, lam = (params + [0.0, 0.0, 0.0])[:3]
    return [
        ("u1", [(lam + phi) / 2], [0]),
        ("u1", [(lam - phi) / 2], [1]),
        ("cx", [], [0, 1]),
        ("u3", [-theta / 2, 0.0, -(phi + lam) / 2], [1]),
        ("cx", [], [0, 1]),
        ("u3", [theta / 2, phi, 0.0], [1]),
    ]


def _rzz(params: list[float]):
    theta = params[0] if params else 0.0
    return [("cx", [], [0, 1]), ("rz", [theta], [1]), ("cx", [], [0, 1])]


def _rxx(params: list[float]):
    theta = params[0] if params else 0.0
    return [
        ("h", [], [0]), ("h", [], [1]),
        ("cx", [], [0, 1]), ("rz", [theta], [1]), ("cx", [], [0, 1]),
        ("h", [], [0]), ("h", [], [1]),
    ]


def _ccx(params: list[float]):
    return [
        ("h", [], [2]),
        ("cx", [], [1, 2]), ("tdg", [], [2]),
        ("cx", [], [0, 2]), ("t", [], [2]),
        ("cx", [], [1, 2]), ("tdg", [], [2]),
        ("cx", [], [0, 2]), ("t", [], [1]), ("t", [], [2]),
        ("cx", [], [0, 1]), ("h", [], [2]),
        ("t", [], [0]), ("tdg", [], [1]),
        ("cx", [], [0, 1]),
    ]


def _cswap(params: list[float]):
    # Fredkin = CNOT sandwich around a Toffoli.
    return [("cx", [], [2, 1])] + [(n, p, [{0: 0, 1: 1, 2: 2}[q] for q in qs]) for n, p, qs in _ccx(params)] + [
        ("cx", [], [2, 1])
    ]


def _ccz(params: list[float]):
    return [("h", [], [2])] + _ccx(params) + [("h", [], [2])]


_STD_DECOMPOSITIONS = {
    "cz": _cz,
    "cy": _cy,
    "ch": _ch,
    "swap": _swap,
    "iswap": _iswap,
    "crz": _crz,
    "cry": _cry,
    "crx": _crx,
    "cu1": _cu1,
    "cp": _cu1,
    "cu3": _cu3,
    "cu": _cu3,
    "rzz": _rzz,
    "rxx": _rxx,
    "ccx": _ccx,
    "toffoli": _ccx,
    "ccz": _ccz,
    "cswap": _cswap,
    "fredkin": _cswap,
    "cnot": lambda params: [("cx", [], [0, 1])],
}


def expand_program(program: ast.Program, include_conditional: bool = True, name: str = "qasm") -> Circuit:
    """Expand a parsed program into a flat circuit."""
    return QasmExpander(program, include_conditional=include_conditional, name=name).expand()
