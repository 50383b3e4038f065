"""The reference OpenQASM 2.0 front end: a character-loop lexer, a
token-object recursive-descent parser and an AST walker.

This is the front end :mod:`repro.circuits.qasm` is held to, kept in its
obviously-correct form:

* :func:`tokenize` walks the source one character at a time and builds one
  :class:`Token` per token, newlines and comments dropped;
* :class:`Parser` asks ``_peek`` / ``_check`` / ``_expect`` for every token;
* :class:`QasmExpander` appends each gate through :meth:`Circuit.append`.

Production scans with one regular expression and walks the token strings by
index; for every input :func:`reference_parse` / :func:`reference_loads` and
production must return equal ASTs and circuits or raise the same
:class:`~repro.errors.QasmError`.  The one intended difference: where this
module escapes with a non-``QasmError`` (``int('²')``, ``float('1e')``, a
math domain error, an overflow, a ``RecursionError``), production raises
``QasmError`` with a line.  Both build the production
:mod:`~repro.circuits.qasm.ast` nodes and share the standard-gate
decomposition table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.circuits.qasm import ast
from repro.circuits.qasm.expander import _STD_DECOMPOSITIONS, PRIMITIVE_GATES
from repro.errors import QasmError


# ----------------------------------------------------------------------- lexer
class TokenType(enum.Enum):
    """Lexical categories of OpenQASM 2.0 tokens."""

    ID = "id"
    REAL = "real"
    INT = "int"
    STRING = "string"
    KEYWORD = "keyword"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    SEMICOLON = ";"
    COMMA = ","
    ARROW = "->"
    EQUALS = "=="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    CARET = "^"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "OPENQASM", "include", "qreg", "creg", "gate", "opaque",
        "measure", "reset", "barrier", "if", "pi",
    }
)

_SINGLE_CHAR_TOKENS = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    ";": TokenType.SEMICOLON,
    ",": TokenType.COMMA,
    "+": TokenType.PLUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "^": TokenType.CARET,
}


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    type: TokenType
    value: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.name}({self.value!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Tokenize OpenQASM 2.0 ``source`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(source)

    def error(message: str) -> QasmError:
        return QasmError(message, line=line, column=column)

    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_column = column
        if ch == "-":
            if i + 1 < n and source[i + 1] == ">":
                tokens.append(Token(TokenType.ARROW, "->", line, start_column))
                i += 2
                column += 2
                continue
            tokens.append(Token(TokenType.MINUS, "-", line, start_column))
            i += 1
            column += 1
            continue
        if ch == "=":
            if i + 1 < n and source[i + 1] == "=":
                tokens.append(Token(TokenType.EQUALS, "==", line, start_column))
                i += 2
                column += 2
                continue
            raise error("single '=' is not valid OpenQASM; did you mean '=='?")
        if ch in _SINGLE_CHAR_TOKENS:
            tokens.append(Token(_SINGLE_CHAR_TOKENS[ch], ch, line, start_column))
            i += 1
            column += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise error("unterminated string literal")
                j += 1
            if j >= n:
                raise error("unterminated string literal")
            value = source[i + 1 : j]
            tokens.append(Token(TokenType.STRING, value, line, start_column))
            column += j - i + 1
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = source[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and source[j] in "+-":
                        j += 1
                else:
                    break
            value = source[i:j]
            token_type = TokenType.REAL if (seen_dot or seen_exp) else TokenType.INT
            tokens.append(Token(token_type, value, line, start_column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            value = source[i:j]
            token_type = TokenType.KEYWORD if value in KEYWORDS else TokenType.ID
            tokens.append(Token(token_type, value, line, start_column))
            column += j - i
            i = j
            continue
        raise error(f"unexpected character {ch!r}")

    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens


# ---------------------------------------------------------------------- parser
class Parser:
    """Parses a token stream into an :class:`~repro.circuits.qasm.ast.Program`."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # ----------------------------------------------------------------- helpers
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, token_type: TokenType, value: str | None = None) -> bool:
        token = self._peek()
        if token.type is not token_type:
            return False
        return value is None or token.value == value

    def _expect(self, token_type: TokenType, value: str | None = None) -> Token:
        token = self._peek()
        if not self._check(token_type, value):
            expected = value if value is not None else token_type.name
            raise QasmError(
                f"expected {expected!r} but found {token.value!r}", line=token.line, column=token.column
            )
        return self._advance()

    def _error(self, message: str) -> QasmError:
        token = self._peek()
        return QasmError(message, line=token.line, column=token.column)

    # ------------------------------------------------------------------- parse
    def parse(self) -> ast.Program:
        """Parse the whole token stream into a program."""
        program = ast.Program()
        if self._check(TokenType.KEYWORD, "OPENQASM"):
            self._advance()
            version = self._expect(TokenType.REAL).value
            self._expect(TokenType.SEMICOLON)
            program.version = version
        while not self._check(TokenType.EOF):
            program.statements.append(self._parse_statement())
        return program

    def _parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.type is TokenType.KEYWORD:
            if token.value == "include":
                return self._parse_include()
            if token.value in ("qreg", "creg"):
                return self._parse_register()
            if token.value == "gate":
                return self._parse_gate_definition()
            if token.value == "opaque":
                return self._parse_opaque()
            if token.value == "measure":
                return self._parse_measure()
            if token.value == "reset":
                return self._parse_reset()
            if token.value == "barrier":
                return self._parse_barrier()
            if token.value == "if":
                return self._parse_conditional()
        if token.type is TokenType.ID:
            return self._parse_gate_call()
        raise self._error(f"unexpected token {token.value!r}")

    def _parse_include(self) -> ast.Include:
        self._expect(TokenType.KEYWORD, "include")
        filename = self._expect(TokenType.STRING).value
        self._expect(TokenType.SEMICOLON)
        return ast.Include(filename)

    def _parse_register(self) -> ast.RegisterDecl:
        kind = self._advance().value
        name = self._expect(TokenType.ID).value
        self._expect(TokenType.LBRACKET)
        size_token = self._expect(TokenType.INT)
        self._expect(TokenType.RBRACKET)
        self._expect(TokenType.SEMICOLON)
        size = int(size_token.value)
        if size <= 0:
            raise QasmError(f"register {name!r} must have positive size", line=size_token.line)
        return ast.RegisterDecl(kind, name, size)

    def _parse_gate_definition(self) -> ast.GateDefinition:
        self._expect(TokenType.KEYWORD, "gate")
        name = self._expect(TokenType.ID).value
        params: list[str] = []
        if self._check(TokenType.LPAREN):
            self._advance()
            if not self._check(TokenType.RPAREN):
                params.append(self._expect(TokenType.ID).value)
                while self._check(TokenType.COMMA):
                    self._advance()
                    params.append(self._expect(TokenType.ID).value)
            self._expect(TokenType.RPAREN)
        qubits = [self._expect(TokenType.ID).value]
        while self._check(TokenType.COMMA):
            self._advance()
            qubits.append(self._expect(TokenType.ID).value)
        self._expect(TokenType.LBRACE)
        body: list[ast.GateCall] = []
        while not self._check(TokenType.RBRACE):
            if self._check(TokenType.KEYWORD, "barrier"):
                # Barriers inside gate bodies carry no scheduling meaning here.
                self._parse_barrier()
                continue
            statement = self._parse_gate_call()
            body.append(statement)
        self._expect(TokenType.RBRACE)
        return ast.GateDefinition(name, tuple(params), tuple(qubits), tuple(body))

    def _parse_opaque(self) -> ast.OpaqueDeclaration:
        self._expect(TokenType.KEYWORD, "opaque")
        name = self._expect(TokenType.ID).value
        params: list[str] = []
        if self._check(TokenType.LPAREN):
            self._advance()
            if not self._check(TokenType.RPAREN):
                params.append(self._expect(TokenType.ID).value)
                while self._check(TokenType.COMMA):
                    self._advance()
                    params.append(self._expect(TokenType.ID).value)
            self._expect(TokenType.RPAREN)
        qubits = [self._expect(TokenType.ID).value]
        while self._check(TokenType.COMMA):
            self._advance()
            qubits.append(self._expect(TokenType.ID).value)
        self._expect(TokenType.SEMICOLON)
        return ast.OpaqueDeclaration(name, tuple(params), tuple(qubits))

    def _parse_measure(self) -> ast.Measure:
        self._expect(TokenType.KEYWORD, "measure")
        qubit = self._parse_qubit_ref()
        self._expect(TokenType.ARROW)
        target = self._parse_qubit_ref()
        self._expect(TokenType.SEMICOLON)
        return ast.Measure(qubit, target)

    def _parse_reset(self) -> ast.Reset:
        self._expect(TokenType.KEYWORD, "reset")
        qubit = self._parse_qubit_ref()
        self._expect(TokenType.SEMICOLON)
        return ast.Reset(qubit)

    def _parse_barrier(self) -> ast.Barrier:
        self._expect(TokenType.KEYWORD, "barrier")
        qubits = [self._parse_qubit_ref()]
        while self._check(TokenType.COMMA):
            self._advance()
            qubits.append(self._parse_qubit_ref())
        self._expect(TokenType.SEMICOLON)
        return ast.Barrier(tuple(qubits))

    def _parse_conditional(self) -> ast.Conditional:
        self._expect(TokenType.KEYWORD, "if")
        self._expect(TokenType.LPAREN)
        register = self._expect(TokenType.ID).value
        self._expect(TokenType.EQUALS)
        value = int(self._expect(TokenType.INT).value)
        self._expect(TokenType.RPAREN)
        body = self._parse_statement()
        return ast.Conditional(register, value, body)

    def _parse_gate_call(self) -> ast.GateCall:
        name_token = self._expect(TokenType.ID)
        params: list[ast.Expr] = []
        if self._check(TokenType.LPAREN):
            self._advance()
            if not self._check(TokenType.RPAREN):
                params.append(self._parse_expression())
                while self._check(TokenType.COMMA):
                    self._advance()
                    params.append(self._parse_expression())
            self._expect(TokenType.RPAREN)
        qubits = [self._parse_qubit_ref()]
        while self._check(TokenType.COMMA):
            self._advance()
            qubits.append(self._parse_qubit_ref())
        self._expect(TokenType.SEMICOLON)
        return ast.GateCall(name_token.value.lower(), tuple(params), tuple(qubits), line=name_token.line)

    def _parse_qubit_ref(self) -> ast.QubitRef:
        name = self._expect(TokenType.ID).value
        index: int | None = None
        if self._check(TokenType.LBRACKET):
            self._advance()
            index = int(self._expect(TokenType.INT).value)
            self._expect(TokenType.RBRACKET)
        return ast.QubitRef(name, index)

    # -------------------------------------------------------------- expressions
    def _parse_expression(self) -> ast.Expr:
        return self._parse_additive()

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._check(TokenType.PLUS) or self._check(TokenType.MINUS):
            operator = self._advance().value
            right = self._parse_multiplicative()
            left = ast.BinaryOp(operator, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._check(TokenType.STAR) or self._check(TokenType.SLASH):
            operator = self._advance().value
            right = self._parse_unary()
            left = ast.BinaryOp(operator, left, right)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._check(TokenType.MINUS) or self._check(TokenType.PLUS):
            operator = self._advance().value
            return ast.UnaryOp(operator, self._parse_unary())
        return self._parse_power()

    def _parse_power(self) -> ast.Expr:
        base = self._parse_atom()
        if self._check(TokenType.CARET):
            self._advance()
            exponent = self._parse_unary()
            return ast.BinaryOp("^", base, exponent)
        return base

    def _parse_atom(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value == "pi":
            self._advance()
            return ast.Pi()
        if token.type in (TokenType.REAL, TokenType.INT):
            self._advance()
            return ast.Number(float(token.value))
        if token.type is TokenType.ID:
            self._advance()
            if self._check(TokenType.LPAREN):
                self._advance()
                argument = self._parse_expression()
                self._expect(TokenType.RPAREN)
                return ast.Call(token.value, argument)
            return ast.Identifier(token.value)
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._parse_expression()
            self._expect(TokenType.RPAREN)
            return inner
        raise self._error(f"unexpected token {token.value!r} in expression")


def reference_parse(source: str) -> ast.Program:
    """Parse OpenQASM 2.0 ``source`` text into an AST program."""
    return Parser(tokenize(source)).parse()


# -------------------------------------------------------------------- expander
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
        if isinstance(statement, (ast.Include, ast.RegisterDecl, ast.GateDefinition, ast.OpaqueDeclaration)):
            return
        if isinstance(statement, ast.Measure):
            for qubit in self._registers.resolve(statement.qubit):
                self._circuit.append(Gate("measure", (qubit,)))
            return
        if isinstance(statement, ast.Reset):
            for qubit in self._registers.resolve(statement.qubit):
                self._circuit.append(Gate("reset", (qubit,)))
            return
        if isinstance(statement, ast.Barrier):
            return
        if isinstance(statement, ast.Conditional):
            if self._include_conditional:
                self._expand_statement(statement.body)
            return
        if isinstance(statement, ast.GateCall):
            self._expand_call(statement)
            return
        raise QasmError(f"unsupported statement {type(statement).__name__}")

    # --------------------------------------------------------------- gate calls
    def _expand_call(self, call: ast.GateCall) -> None:
        params = [expr.evaluate({}) for expr in call.params]
        operand_lists = [self._registers.resolve(ref) for ref in call.qubits]
        for operands in _broadcast(operand_lists, call.name, call.line):
            self._emit(call.name, params, list(operands))

    def _emit(self, name: str, params: list[float], qubits: list[int]) -> None:
        if len(set(qubits)) != len(qubits):
            # Broadcasting or a malformed file can produce a self-targeting
            # two-qubit gate; such a gate is the identity on the CNOT DAG and
            # is dropped rather than crashing the whole benchmark.
            return
        if name in self._definitions:
            self._emit_definition(self._definitions[name], params, qubits)
            return
        if name in PRIMITIVE_GATES:
            self._circuit.append(Gate(name, tuple(qubits), tuple(params)))
            return
        decomposition = _STD_DECOMPOSITIONS.get(name)
        if decomposition is None:
            # Unknown opaque gate: treat any two-qubit unknown as one CNOT of
            # communication, and ignore unknown single-qubit gates.
            if len(qubits) == 2:
                self._circuit.append(Gate("cx", tuple(qubits)))
                return
            if len(qubits) == 1:
                self._circuit.append(Gate("u", tuple(qubits), tuple(params)))
                return
            raise QasmError(f"unknown gate {name!r} on {len(qubits)} qubits")
        for sub_name, sub_params, sub_qubit_indices in decomposition(params):
            self._emit(sub_name, sub_params, [qubits[i] for i in sub_qubit_indices])

    def _emit_definition(self, definition: ast.GateDefinition, params: list[float], qubits: list[int]) -> None:
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
            self._emit(call.name, sub_params, sub_qubits)


def _broadcast(operand_lists: list[list[int]], name: str, line: int) -> list[tuple[int, ...]]:
    """OpenQASM register broadcasting: whole registers are zipped element-wise."""
    lengths = {len(ops) for ops in operand_lists if len(ops) > 1}
    if len(lengths) > 1:
        raise QasmError(f"mismatched register sizes in broadcast of {name!r}", line=line)
    count = lengths.pop() if lengths else 1
    broadcasted = []
    for i in range(count):
        broadcasted.append(tuple(ops[i] if len(ops) > 1 else ops[0] for ops in operand_lists))
    return broadcasted


def reference_expand(program: ast.Program, include_conditional: bool = True, name: str = "qasm") -> Circuit:
    """Expand a parsed program into a flat circuit."""
    return QasmExpander(program, include_conditional=include_conditional, name=name).expand()


def reference_loads(source: str, include_conditional: bool = True, name: str = "qasm") -> Circuit:
    """Parse OpenQASM 2.0 ``source`` text into a flattened circuit."""
    return reference_expand(reference_parse(source), include_conditional=include_conditional, name=name)
