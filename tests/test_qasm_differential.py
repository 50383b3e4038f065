"""Differential tests: the one-scan QASM front end against the reference one.

:mod:`oracle.qasm` is the character-loop lexer, token-object parser and AST
walker the front end used to be.  For every input — generated valid programs,
mutations of them and garbage text — :func:`tokenize`, :func:`parse_program`
and :func:`qasm.loads` must return what the oracle returns (tokens, an equal
AST, a circuit with the same gates, indices and parameters) or raise the same
:class:`QasmError` message at the same line and column.

Two divergences are intended:

* the crash class: where the oracle escapes with a non-``QasmError``
  (``int('²')``, ``float('1e')``, a math domain error, an overflow, a
  ``RecursionError``), production raises ``QasmError`` with a line;
* characters that ``str.isdigit`` accepts but ``str.isdecimal`` rejects
  (superscripts, circled digits): the oracle lexes them as digits, so it
  either crashes on them or reports a differently split token; production
  reports an unexpected character.  Where the results then differ,
  production must raise ``QasmError`` with a line.

Two oracle quirks are matched rather than listed: identifiers start with any
Unicode letter (``str.isalpha``), and the end-of-source token's column does
not advance over a trailing comment that has no newline.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import reference_loads, reference_parse, reference_tokenize

from repro.circuits import qasm
from repro.circuits.generators.suite import TABLE1_SUITE, get_benchmark
from repro.circuits.qasm import parse_program
from repro.circuits.qasm.tokens import tokenize
from repro.errors import QasmError

SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------------ comparison
def _outcome(function, source: str):
    try:
        return "ok", function(source)
    except QasmError as exc:
        return "error", (str(exc), exc.line, exc.column)
    except Exception as exc:  # noqa: BLE001 - the oracle's crash class
        return "crash", type(exc).__name__


def _token_key(tokens):
    return [(token.type.name, token.value, token.line, token.column) for token in tokens]


def _circuit_key(circuit):
    gates = [(gate.name, gate.qubits, repr(gate.params), gate.index) for gate in circuit]
    return circuit.name, circuit.num_qubits, gates


def _digit_quirk(source: str) -> bool:
    return any(char.isdigit() and not char.isdecimal() for char in source)


def _assert_agrees(source: str, reference, production, key) -> None:
    expected = _outcome(reference, source)
    actual = _outcome(production, source)
    assert actual[0] != "crash", (source, actual)
    if expected[0] == "crash" or (_digit_quirk(source) and expected[0] != actual[0]):
        assert actual[0] == "error", (source, expected, actual)
        assert actual[1][1] is not None, (source, actual)
        return
    if _digit_quirk(source) and expected[0] == actual[0] == "error" and expected != actual:
        assert actual[1][1] is not None, (source, actual)
        return
    assert expected[0] == actual[0], (source, expected, actual)
    if expected[0] == "ok":
        assert key(actual[1]) == key(expected[1]), source
    else:
        assert actual[1] == expected[1], source


def assert_front_ends_agree(source: str) -> None:
    """Tokens, AST and circuit (or the error) equal the oracle's for ``source``."""
    _assert_agrees(source, reference_tokenize, tokenize, _token_key)
    _assert_agrees(source, reference_parse, parse_program, lambda program: program)
    _assert_agrees(source, reference_loads, qasm.loads, _circuit_key)


# ------------------------------------------------------------------ generators
#: (name, parameter count, qubit count) of gates the expander knows, and
#: one CNOT of the wrong arity.
BUILTIN_GATES = [
    ("h", 0, 1), ("x", 0, 1), ("t", 0, 1), ("sdg", 0, 1), ("id", 0, 1),
    ("rz", 1, 1), ("u2", 2, 1), ("u3", 3, 1), ("cx", 0, 2), ("CX", 0, 2),
    ("cz", 0, 2), ("swap", 0, 2), ("iswap", 0, 2), ("crz", 1, 2), ("cu1", 1, 2),
    ("cu3", 3, 2), ("rzz", 1, 2), ("ccx", 0, 3), ("cswap", 0, 3), ("mystery", 0, 2),
    ("cx", 0, 1),
]
NUMBERS = ["0", "1", "2", "10", "0.5", ".25", "3.", "1e-3", "2E+1", "1.5e2"]
FUNCTIONS = ["sin", "cos", "tan", "exp", "ln", "sqrt", "foo"]
#: Gaps between the tokens of a statement, and between statements.
TOKEN_GAPS = [" ", " ", " ", "\t", "  ", "\n", "\r\n", " // note\n"]
LINE_ENDS = ["\n", "\n", "\r\n", " // end\n", "\n\n", "\t\n"]


def expressions(formals: tuple[str, ...] = ()) -> st.SearchStrategy[str]:
    """Parameter expression text over numbers, ``pi`` and ``formals``."""
    leaves = st.sampled_from(NUMBERS + ["pi"] + list(formals))

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/^"), children).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
            st.tuples(st.sampled_from("-+"), children).map("".join),
            children.map(lambda c: f"({c})"),
            st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: f"{t[0]}({t[1]})"),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def _join(draw, tokens: list[str]) -> str:
    gaps = draw(st.lists(st.sampled_from(TOKEN_GAPS), min_size=len(tokens), max_size=len(tokens)))
    return "".join(token + gap for token, gap in zip(tokens, gaps))


def _call(draw, name: str, n_params: int, operands: list[str], formals: tuple[str, ...] = ()) -> list[str]:
    tokens = [name]
    if n_params or draw(st.booleans()):
        params = [draw(expressions(formals)) for _ in range(n_params)]
        tokens += ["(", ", ".join(params), ")"]
    tokens.append(", ".join(operands))
    return tokens + [";"]


@st.composite
def programs(draw) -> str:
    """A mostly valid OpenQASM 2.0 program using every statement kind."""
    lines: list[str] = []
    if draw(st.booleans()):
        lines.append(_join(draw, ["OPENQASM", "2.0", ";"]))
    if draw(st.booleans()):
        lines.append(_join(draw, ["include", '"qelib1.inc"', ";"]))
    names = draw(st.lists(st.sampled_from(["q", "r", "anc", "Qb", "_t", "é"]), min_size=1, max_size=3, unique=True))
    sizes = {name: draw(st.integers(1, 4)) for name in names}
    for name in names:
        lines.append(_join(draw, ["qreg", name, "[", str(sizes[name]), "]", ";"]))
    cregs = {f"c{i}": draw(st.integers(1, 3)) for i in range(draw(st.integers(0, 2)))}
    for name, size in cregs.items():
        lines.append(_join(draw, ["creg", name, "[", str(size), "]", ";"]))

    gates = list(BUILTIN_GATES)
    for number in range(draw(st.integers(0, 3))):
        name = f"g{number}"
        params = tuple(draw(st.lists(st.sampled_from(["a", "b", "theta"]), max_size=2, unique=True)))
        qubits = ("x", "y", "z")[: draw(st.integers(1, 3))]
        body: list[str] = []
        callees = gates + [(name, len(params), len(qubits))] * draw(st.sampled_from([0, 0, 0, 1]))
        for _ in range(draw(st.integers(0, 3))):
            callee, n_params, arity = draw(st.sampled_from(callees))
            operands = [draw(st.sampled_from(qubits)) for _ in range(arity)]
            body += _call(draw, callee, n_params, operands, params)
        if draw(st.booleans()):
            body += ["barrier", ", ".join(qubits), ";"]
        head = ["gate", name] + (["(", ", ".join(params), ")"] if params or draw(st.booleans()) else [])
        lines.append(_join(draw, head + [", ".join(qubits), "{"] + body + ["}"]))
        gates.append((name, len(params), len(qubits)))
    if draw(st.booleans()):
        lines.append(_join(draw, ["opaque", "magic", "(", "a", ")", "x", ",", "y", ";"]))
        gates.append(("magic", 1, 2))

    def operand() -> str:
        name = draw(st.sampled_from(names))
        if draw(st.integers(0, 2)) == 0:
            return name
        out_of_range = draw(st.integers(0, 9)) == 0
        return f"{name}[{sizes[name] if out_of_range else draw(st.integers(0, sizes[name] - 1))}]"

    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["call", "call", "call", "measure", "reset", "barrier", "if"]))
        if kind == "call" or (kind == "if" and not cregs):
            name, n_params, arity = draw(st.sampled_from(gates))
            tokens = _call(draw, name, n_params, [operand() for _ in range(arity)])
        elif kind == "measure":
            creg = draw(st.sampled_from(sorted(cregs) or ["c"]))
            tokens = ["measure", operand(), "->", f"{creg}[0]", ";"]
        elif kind == "reset":
            tokens = ["reset", operand(), ";"]
        elif kind == "barrier":
            tokens = ["barrier", ", ".join(operand() for _ in range(draw(st.integers(1, 3)))), ";"]
        else:
            name, n_params, arity = draw(st.sampled_from(gates))
            condition = ["if", "(", draw(st.sampled_from(sorted(cregs))), "==", str(draw(st.integers(0, 3))), ")"]
            tokens = condition + _call(draw, name, n_params, [operand() for _ in range(arity)])
        lines.append(_join(draw, tokens))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip()


#: Fragments spliced into programs: every lexical edge the scanners handle.
INSERTIONS = [
    "²", "①", "٣", "½", "é", "ß", "=", '"', ".", "e", "E+", "//", "/",
    "\n", "\r", "\t", ";", ",", "(", ")", "[", "]", "{", "}", "->", "==", "-", "^", "if", "pi",
    "gate", "qreg q[2];", "0", "99", "1e", "@", "\x0b", " ", "OPENQASM", "// c", "x_1",
]


@st.composite
def mutated_programs(draw) -> str:
    """A generated program with one to three tokens or spans dropped, duplicated or replaced."""
    text = draw(programs())
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["drop", "drop", "delete", "duplicate", "insert", "replace"]))
        if action == "drop":
            words = [match.span() for match in re.finditer(r"\w+|->|==|\S", text)]
            start, end = draw(st.sampled_from(words)) if words else (0, 0)
        else:
            start = draw(st.integers(0, len(text)))
            end = draw(st.integers(start, min(len(text), start + 8)))
        if action in ("drop", "delete"):
            text = text[:start] + text[end:]
        elif action == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            fragment = draw(st.sampled_from(INSERTIONS))
            text = text[:start] + fragment + text[end if action == "replace" else start :]
    return text


GARBAGE_ALPHABET = list(" \t\r\n;,()[]{}+-*/^=<>\"._0123456789eExqcrhgiftp") + ["²", "٣", "é", "½"]


# ----------------------------------------------------------------------- tests
@SETTINGS
@given(programs())
def test_generated_programs_agree(source):
    assert_front_ends_agree(source)


@SETTINGS
@given(mutated_programs())
def test_mutated_programs_agree(source):
    assert_front_ends_agree(source)


@SETTINGS
@given(st.one_of(st.text(alphabet=st.sampled_from(GARBAGE_ALPHABET), max_size=60), st.text(max_size=40)))
def test_garbage_text_agrees(source):
    assert_front_ends_agree(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "// only a comment",
        "h q; // trailing comment without newline",
        "qreg q[2];\r\nh q;\t// tab\r\n",
        "qreg été[2];\ncx été[0], été[1];\n",
        "qreg q[٣];\nh q;\n",
        "OPENQASM 2.²;\n",
        "rz(1.e5) q[0];",
        "include \"a//b\";",
        "qreg q[1];\nrz(1e999 - 1e999) q[0];\n",
        "qreg q[1];\nrz((-8)^(1/3)) q[0];\n",
        "qreg q[1];\nrz(0^-1) q[0];\n",
        "qreg q[2];\ngate a x { b x; }\ngate b x { a x; }\na q[0];\n",
        "if (c == 1) if (c == 2) x q[0];",
        "\n\nqreg q[0];",
        "qreg q[2];\nh q[2];\nh r;\n",
        "qreg q[2];\ncx q[0];\n",
        "qreg q[" + "9" * 5000 + "];\n",
        "qreg q[1];\nh q[" + "1" * 5000 + "];\n",
        "qreg q[3];\ngate g a { cx a; }\ng q[0];\n",
    ],
)
def test_edge_cases_agree(source):
    assert_front_ends_agree(source)


#: Every statement kind and expression form, for the exhaustive deletions.
KITCHEN_SINK = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
qreg r[2];
creg c[2];
gate g(theta, phi) a, b { rz(theta / 2 + -phi ^ 2) a; cx a, b; barrier a, b; u3(sin(pi), cos(0), ln(2)) b; }
gate h2 a { h a; }
opaque magic(x) a, b;
g(pi, 0.5) q[0], r[1];
h2 q;
cx q[0], q[1];
cx q, r[0];
magic(1) q[2], r[0];
measure q[0] -> c[0];
reset r;
barrier q, r;
if (c == 1) x q[1];
rz(1e-3 * .25) q[2]; // comment
"""


def test_every_single_deletion_agrees():
    """Dropping any one character, or any one token, reaches every syntax error site."""
    assert_front_ends_agree(KITCHEN_SINK)
    for start in range(len(KITCHEN_SINK)):
        assert_front_ends_agree(KITCHEN_SINK[:start] + KITCHEN_SINK[start + 1 :])
    for match in re.finditer(r'"[^"]*"|\w+|->|==|\S', KITCHEN_SINK):
        assert_front_ends_agree(KITCHEN_SINK[: match.start()] + KITCHEN_SINK[match.end() :])


def _example_qasm() -> str:
    path = Path(__file__).resolve().parents[1] / "examples" / "qasm_compilation.py"
    spec = importlib.util.spec_from_file_location("qasm_compilation_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXAMPLE_QASM


def test_example_qasm_agrees():
    assert_front_ends_agree(_example_qasm())


@pytest.mark.parametrize("name", [spec.name for spec in TABLE1_SUITE])
def test_table1_round_trip_agrees(name):
    text = qasm.dumps(get_benchmark(name).build())
    assert _circuit_key(qasm.loads(text)) == _circuit_key(reference_loads(text))
