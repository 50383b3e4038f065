"""Parser for the OpenQASM 2.0 subset.

The grammar follows the OpenQASM 2.0 specification closely enough to parse
the benchmark suites the paper uses (Qiskit-exported circuits, QASMBench):

* header (``OPENQASM 2.0;``, ``include``),
* register declarations,
* ``gate`` definitions with parameters,
* gate applications with expression parameters and register broadcasting,
* ``measure``, ``reset``, ``barrier`` and ``if (creg == n)`` conditionals.

The parser walks :func:`~repro.circuits.qasm.tokens.scan`'s token strings by
index: every statement method takes the index of its first token and returns
its node with the index after it.  Only expressions (and the statement inside
an ``if``) recurse.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable

from repro.circuits.qasm import ast
from repro.circuits.qasm.tokens import TokenType, locate, scan, token_value
from repro.errors import QasmError

_ID = TokenType.ID
_INT = TokenType.INT
_REAL = TokenType.REAL


class Parser:
    """Parses OpenQASM 2.0 source text into an :class:`~repro.circuits.qasm.ast.Program`."""

    def __init__(self, source: str):
        self._source = source
        self._tokens, self._line_starts, self._kinds = scan(source)
        # Equal operands share one immutable node within a program.
        self._refs: dict[tuple[str, str | None], ast.QubitRef] = {}

    # ----------------------------------------------------------------- helpers
    def _line(self, index: int) -> int:
        return bisect_right(self._line_starts, index) + 1

    def _error(self, index: int, message: str) -> QasmError:
        line, column = locate(self._source, self._line_starts, index)
        return QasmError(message, line=line, column=column)

    def _expected(self, index: int, expected: str) -> QasmError:
        found = token_value(self._tokens[index])
        return self._error(index, f"expected {expected!r} but found {found!r}")

    def _expect(self, index: int, text: str, name: str) -> int:
        """Index after token ``index``, which must be ``text`` (``name`` in the error)."""
        if self._tokens[index] != text:
            raise self._expected(index, name)
        return index + 1

    def _identifier(self, index: int) -> str:
        text = self._tokens[index]
        if self._kinds[text] is not _ID:
            raise self._expected(index, "ID")
        return text

    def _integer(self, index: int) -> int:
        text = self._tokens[index]
        if self._kinds[text] is not _INT:
            raise self._expected(index, "INT")
        try:
            return int(text)
        except ValueError:  # longer than ``sys.get_int_max_str_digits()``
            raise self._error(index, f"integer literal of {len(text)} digits is too long") from None

    def _identifiers(self, index: int) -> tuple[tuple[str, ...], int]:
        """``ID (, ID)*``."""
        names = [self._identifier(index)]
        while self._tokens[index + 1] == ",":
            index += 2
            names.append(self._identifier(index))
        return tuple(names), index + 1

    # ------------------------------------------------------------------- parse
    def parse(self) -> ast.Program:
        """Parse the whole source into a program."""
        tokens = self._tokens
        program = ast.Program()
        index = 0
        if tokens[0] == "OPENQASM":
            if self._kinds[tokens[1]] is not _REAL:
                raise self._expected(1, "REAL")
            index = self._expect(2, ";", "SEMICOLON")
            program.version = tokens[1]
        statements = program.statements
        while tokens[index]:
            start = index
            try:
                statement, index = self._statement(index)
            except RecursionError:
                raise self._error(start, "statement nested too deeply") from None
            statements.append(statement)
        return program

    def _statement(self, index: int) -> tuple[ast.Statement, int]:
        text = self._tokens[index]
        if self._kinds[text] is _ID:
            return self._gate_call(index)
        parse = _KEYWORD_STATEMENTS.get(text)
        if parse is None:
            raise self._error(index, f"unexpected token {token_value(text)!r}")
        return parse(self, index)

    def _include(self, index: int) -> tuple[ast.Include, int]:
        filename = self._tokens[index + 1]
        if self._kinds[filename] is not TokenType.STRING:
            raise self._expected(index + 1, "STRING")
        return ast.Include(token_value(filename)), self._expect(index + 2, ";", "SEMICOLON")

    def _register(self, index: int) -> tuple[ast.RegisterDecl, int]:
        kind = self._tokens[index]
        name = self._identifier(index + 1)
        self._expect(index + 2, "[", "LBRACKET")
        if self._kinds[self._tokens[index + 3]] is not _INT:
            raise self._expected(index + 3, "INT")
        self._expect(index + 4, "]", "RBRACKET")
        after = self._expect(index + 5, ";", "SEMICOLON")
        size = self._integer(index + 3)
        if size <= 0:
            raise QasmError(f"register {name!r} must have positive size", line=self._line(index + 3))
        return ast.RegisterDecl(kind, name, size), after

    def _signature(self, index: int) -> tuple[str, tuple[str, ...], tuple[str, ...], int]:
        """``ID [( [ID (, ID)*] )] ID (, ID)*`` of a ``gate`` or ``opaque``."""
        name = self._identifier(index)
        params: tuple[str, ...] = ()
        index += 1
        if self._tokens[index] == "(":
            index += 1
            if self._tokens[index] != ")":
                params, index = self._identifiers(index)
            index = self._expect(index, ")", "RPAREN")
        qubits, index = self._identifiers(index)
        return name, params, qubits, index

    def _gate_definition(self, index: int) -> tuple[ast.GateDefinition, int]:
        name, params, qubits, index = self._signature(index + 1)
        index = self._expect(index, "{", "LBRACE")
        body: list[ast.GateCall] = []
        while self._tokens[index] != "}":
            if self._tokens[index] == "barrier":
                # Barriers inside gate bodies carry no scheduling meaning here.
                index = self._barrier(index)[1]
                continue
            call, index = self._gate_call(index)
            body.append(call)
        return ast.GateDefinition(name, params, qubits, tuple(body)), index + 1

    def _opaque(self, index: int) -> tuple[ast.OpaqueDeclaration, int]:
        name, params, qubits, index = self._signature(index + 1)
        return ast.OpaqueDeclaration(name, params, qubits), self._expect(index, ";", "SEMICOLON")

    def _measure(self, index: int) -> tuple[ast.Measure, int]:
        qubit, index = self._qubit_ref(index + 1)
        target, index = self._qubit_ref(self._expect(index, "->", "ARROW"))
        return ast.Measure(qubit, target), self._expect(index, ";", "SEMICOLON")

    def _reset(self, index: int) -> tuple[ast.Reset, int]:
        qubit, index = self._qubit_ref(index + 1)
        return ast.Reset(qubit), self._expect(index, ";", "SEMICOLON")

    def _barrier(self, index: int) -> tuple[ast.Barrier, int]:
        qubits, index = self._qubit_refs(index + 1)
        return ast.Barrier(qubits), self._expect(index, ";", "SEMICOLON")

    def _conditional(self, index: int) -> tuple[ast.Conditional, int]:
        index = self._expect(index + 1, "(", "LPAREN")
        register = self._identifier(index)
        index = self._expect(index + 1, "==", "EQUALS")
        value = self._integer(index)
        body, index = self._statement(self._expect(index + 1, ")", "RPAREN"))
        return ast.Conditional(register, value, body), index

    def _gate_call(self, index: int) -> tuple[ast.GateCall, int]:
        name = self._identifier(index)
        line = self._line(index)
        params: tuple[ast.Expr, ...] = ()
        index += 1
        if self._tokens[index] == "(":
            index += 1
            if self._tokens[index] != ")":
                params, index = self._expressions(index)
            index = self._expect(index, ")", "RPAREN")
        qubits, index = self._qubit_refs(index)
        return ast.GateCall(name.lower(), params, qubits, line), self._expect(index, ";", "SEMICOLON")

    def _qubit_refs(self, index: int) -> tuple[tuple[ast.QubitRef, ...], int]:
        """``ref (, ref)*``."""
        ref, index = self._qubit_ref(index)
        refs = [ref]
        while self._tokens[index] == ",":
            ref, index = self._qubit_ref(index + 1)
            refs.append(ref)
        return tuple(refs), index

    def _qubit_ref(self, index: int) -> tuple[ast.QubitRef, int]:
        """``ID`` or ``ID [ INT ]`` (the hottest rule, so its checks are inline)."""
        tokens, kinds = self._tokens, self._kinds
        name = tokens[index]
        if kinds[name] is not _ID:
            raise self._expected(index, "ID")
        if tokens[index + 1] != "[":
            key: tuple[str, str | None] = (name, None)
            after = index + 1
        else:
            position = tokens[index + 2]
            if kinds[position] is not _INT:
                raise self._expected(index + 2, "INT")
            key = (name, position)
            if tokens[index + 3] != "]":
                raise self._expected(index + 3, "RBRACKET")
            after = index + 4
        ref = self._refs.get(key)
        if ref is None:
            ref = self._refs[key] = ast.QubitRef(name, None if key[1] is None else self._integer(index + 2))
        return ref, after

    # -------------------------------------------------------------- expressions
    def _expressions(self, index: int) -> tuple[tuple[ast.Expr, ...], int]:
        """``expr (, expr)*``."""
        expr, index = self._additive(index)
        exprs = [expr]
        while self._tokens[index] == ",":
            expr, index = self._additive(index + 1)
            exprs.append(expr)
        return tuple(exprs), index

    def _additive(self, index: int) -> tuple[ast.Expr, int]:
        left, index = self._multiplicative(index)
        operator = self._tokens[index]
        while operator == "+" or operator == "-":
            right, index = self._multiplicative(index + 1)
            left = ast.BinaryOp(operator, left, right)
            operator = self._tokens[index]
        return left, index

    def _multiplicative(self, index: int) -> tuple[ast.Expr, int]:
        left, index = self._unary(index)
        operator = self._tokens[index]
        while operator == "*" or operator == "/":
            right, index = self._unary(index + 1)
            left = ast.BinaryOp(operator, left, right)
            operator = self._tokens[index]
        return left, index

    def _unary(self, index: int) -> tuple[ast.Expr, int]:
        operator = self._tokens[index]
        if operator == "-" or operator == "+":
            operand, index = self._unary(index + 1)
            return ast.UnaryOp(operator, operand), index
        base, index = self._atom(index)
        if self._tokens[index] == "^":
            exponent, index = self._unary(index + 1)
            return ast.BinaryOp("^", base, exponent), index
        return base, index

    def _atom(self, index: int) -> tuple[ast.Expr, int]:
        text = self._tokens[index]
        kind = self._kinds[text]
        if text == "pi":
            return ast.Pi(), index + 1
        if kind is _INT or kind is _REAL:
            try:
                value = float(text)
            except ValueError:
                raise self._error(index, f"invalid number {text!r}") from None
            return ast.Number(value), index + 1
        if kind is _ID:
            if self._tokens[index + 1] != "(":
                return ast.Identifier(text), index + 1
            argument, index = self._additive(index + 2)
            return ast.Call(text, argument), self._expect(index, ")", "RPAREN")
        if text == "(":
            inner, index = self._additive(index + 1)
            return inner, self._expect(index, ")", "RPAREN")
        raise self._error(index, f"unexpected token {token_value(text)!r} in expression")


_KEYWORD_STATEMENTS: dict[str, Callable[[Parser, int], tuple[ast.Statement, int]]] = {
    "include": Parser._include,
    "qreg": Parser._register,
    "creg": Parser._register,
    "gate": Parser._gate_definition,
    "opaque": Parser._opaque,
    "measure": Parser._measure,
    "reset": Parser._reset,
    "barrier": Parser._barrier,
    "if": Parser._conditional,
}


def parse_program(source: str) -> ast.Program:
    """Parse OpenQASM 2.0 ``source`` text into an AST program."""
    return Parser(source).parse()
