"""Unit tests for the OpenQASM parser (AST level)."""

import math

import pytest

from repro.circuits import qasm
from repro.circuits.qasm import ast
from repro.circuits.qasm.parser import parse_program
from repro.errors import QasmError

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_header_and_registers():
    program = parse_program(HEADER + "qreg q[3];\ncreg c[3];\n")
    assert program.version == "2.0"
    regs = [s for s in program.statements if isinstance(s, ast.RegisterDecl)]
    assert [(r.kind, r.name, r.size) for r in regs] == [("qreg", "q", 3), ("creg", "c", 3)]


def test_gate_call_with_index_and_broadcast():
    program = parse_program(HEADER + "qreg q[2];\nh q;\ncx q[0], q[1];\n")
    calls = [s for s in program.statements if isinstance(s, ast.GateCall)]
    assert calls[0].name == "h"
    assert calls[0].qubits[0].is_whole_register()
    assert calls[1].qubits[0].index == 0


def test_parameter_expressions_evaluate():
    program = parse_program(HEADER + "qreg q[1];\nrz(-3*pi/4) q[0];\nu3(pi/2, 0, pi) q[0];\n")
    calls = [s for s in program.statements if isinstance(s, ast.GateCall)]
    assert calls[0].params[0].evaluate({}) == pytest.approx(-3 * math.pi / 4)
    assert calls[1].params[0].evaluate({}) == pytest.approx(math.pi / 2)
    assert calls[1].params[2].evaluate({}) == pytest.approx(math.pi)


def test_expression_power_and_parentheses():
    program = parse_program(HEADER + "qreg q[1];\nrz(2^3 * (1 + 1)) q[0];\n")
    call = [s for s in program.statements if isinstance(s, ast.GateCall)][0]
    assert call.params[0].evaluate({}) == pytest.approx(16.0)


def test_function_call_expression():
    program = parse_program(HEADER + "qreg q[1];\nrz(cos(0)) q[0];\n")
    call = [s for s in program.statements if isinstance(s, ast.GateCall)][0]
    assert call.params[0].evaluate({}) == pytest.approx(1.0)


def test_gate_definition_parsing():
    source = HEADER + "qreg q[2];\ngate mygate(theta) a, b { rz(theta) a; cx a, b; }\nmygate(pi) q[0], q[1];\n"
    program = parse_program(source)
    definitions = program.gate_definitions()
    assert "mygate" in definitions
    definition = definitions["mygate"]
    assert definition.params == ("theta",)
    assert definition.qubits == ("a", "b")
    assert [c.name for c in definition.body] == ["rz", "cx"]


def test_measure_and_reset_and_barrier():
    source = HEADER + "qreg q[2];\ncreg c[2];\nbarrier q;\nreset q[0];\nmeasure q[0] -> c[0];\n"
    program = parse_program(source)
    kinds = [type(s).__name__ for s in program.statements]
    assert "Barrier" in kinds
    assert "Reset" in kinds
    assert "Measure" in kinds


def test_conditional_statement():
    source = HEADER + "qreg q[1];\ncreg c[1];\nif (c == 1) x q[0];\n"
    program = parse_program(source)
    conditional = [s for s in program.statements if isinstance(s, ast.Conditional)][0]
    assert conditional.register == "c"
    assert conditional.value == 1
    assert isinstance(conditional.body, ast.GateCall)


def test_opaque_declaration():
    program = parse_program(HEADER + "opaque magic(a, b) q, r;\n")
    decl = [s for s in program.statements if isinstance(s, ast.OpaqueDeclaration)][0]
    assert decl.name == "magic"
    assert decl.qubits == ("q", "r")


def test_missing_semicolon_raises():
    with pytest.raises(QasmError):
        parse_program(HEADER + "qreg q[2]\nh q[0];\n")


def test_zero_size_register_raises():
    with pytest.raises(QasmError):
        parse_program(HEADER + "qreg q[0];\n")


def test_unbound_identifier_evaluation_raises():
    program = parse_program(HEADER + "qreg q[1];\nrz(theta) q[0];\n")
    call = [s for s in program.statements if isinstance(s, ast.GateCall)][0]
    with pytest.raises(QasmError):
        call.params[0].evaluate({})


@pytest.mark.parametrize(
    ("body", "line"),
    [
        ("qreg q[\u00b2];\n", 3),
        ("qreg q[2];\ncx q[0], q[\u00b9];\n", 4),
        ("qreg q[1];\nrz(\u00b2) q[0];\n", 4),
        ("qreg q[1];\nrz(1e) q[0];\n", 4),
        ("qreg q[1];\nrz(sqrt(-1)) q[0];\n", 4),
        ("qreg q[1];\nrz(ln(0)) q[0];\n", 4),
        ("qreg q[1];\nrz(10^400) q[0];\n", 4),
        ("qreg q[2];\ngate g a,b { g a,b; }\ng q[0],q[1];\n", 5),
        ("qreg q[1];\nrz(" + "(" * 3000 + "1" + ")" * 3000 + ") q[0];\n", 4),
    ],
    ids=[
        "superscript-size", "superscript-index", "superscript-param", "bare-exponent",
        "sqrt-domain", "ln-domain", "overflow", "recursive-gate", "deep-parentheses",
    ],
)
def test_malformed_input_raises_qasm_error_with_line(body, line):
    """Inputs that once escaped as ValueError / OverflowError / RecursionError."""
    with pytest.raises(QasmError) as excinfo:
        qasm.loads(HEADER + body)
    assert excinfo.value.line == line
