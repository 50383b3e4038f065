"""Scanner for the OpenQASM 2.0 subset understood by the front-end.

One compiled regular expression, :data:`TOKEN_PATTERN`, splits the source in
a single ``findall`` pass.  Each match skips spaces, tabs, carriage returns
and ``//`` comments, then captures one token string: a newline, a number, an
identifier or keyword, a string literal, punctuation, one stray character (a
lexical error), or the empty string that marks the end of the source.

The parser walks those strings by index.  Line numbers come from counting
newline tokens; a column is computed only when an error is raised, by
re-scanning that one line with the same pattern (:func:`locate`).
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

from repro.errors import QasmError


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
    NEWLINE = "\n"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "OPENQASM", "include", "qreg", "creg", "gate", "opaque",
        "measure", "reset", "barrier", "if", "pi",
    }
)

# Module-level aliases: attribute access on the enum class is slow in a hot loop.
_NEWLINE = TokenType.NEWLINE
_EOF = TokenType.EOF
_STRING = TokenType.STRING

#: Token kinds fixed by their text: punctuation, newline and end of source.
_FIXED_KINDS = {kind.value: kind for kind in TokenType if not kind.value.isalpha()}
_FIXED_KINDS[""] = TokenType.EOF

#: The whole lexical grammar.  Group 1 is the token, after skipped blanks and
#: a comment (which runs to the newline).  The engine never backtracks into
#: the skipped prefix: every position after it matches a token, a newline,
#: one stray character, or the end.  Alternatives are ordered by frequency.
TOKEN_PATTERN = re.compile(
    r"""
    [ \t\r]* (?: //[^\n]* )?
    (   [()\[\]{};,+*/^] | -> | -
    |   [^\W\d] \w*
    |   (?: \d+ \.? \d* | \.\d+ ) (?: [eE] [+-]? \d* )?
    |   \n
    |   "[^"\n]*"
    |   ==
    |   .
    |   \Z
    )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    type: TokenType
    value: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.name}({self.value!r})@{self.line}:{self.column}"


def token_kind(text: str) -> TokenType | None:
    """The kind of the scanned token ``text``; ``None`` for a lexical error."""
    kind = _FIXED_KINDS.get(text)
    if kind is not None:
        return kind
    first = text[0]
    if first.isdecimal() or (first == "." and len(text) > 1):
        return TokenType.INT if text.isdecimal() else TokenType.REAL
    if first.isalpha() or first == "_":
        return TokenType.KEYWORD if text in KEYWORDS else TokenType.ID
    if first == '"' and len(text) > 1:
        return TokenType.STRING
    return None


def token_value(text: str) -> str:
    """The value of the scanned token ``text`` (a string literal loses its quotes)."""
    return text[1:-1] if text[:1] == '"' and len(text) > 1 else text


def _lexical_error(text: str) -> str:
    if text == "=":
        return "single '=' is not valid OpenQASM; did you mean '=='?"
    if text == '"':
        return "unterminated string literal"
    return f"unexpected character {text[0]!r}"


def _column(match: re.Match) -> int:
    """1-based column of a :data:`TOKEN_PATTERN` match's token."""
    if match.group(1):
        return match.start(1) + 1
    # End of source: a trailing comment does not advance the column.
    comment = match.group().find("//")
    return match.start() + 1 + (comment if comment >= 0 else len(match.group()))


def scan(source: str) -> tuple[list[str], list[int], dict[str, TokenType | None]]:
    """Scan ``source`` once.

    Returns the token strings without newlines, up to the end-of-source
    token ``""`` (repeated when the source ends in blanks or a comment); the
    index of the first token of each line after the first; and the kind of
    every distinct token string.  Raises :class:`QasmError` at the first
    lexical error.
    """
    raw = TOKEN_PATTERN.findall(source)
    tokens: list[str] = []
    line_starts: list[int] = []
    begin = 0
    for _ in range(raw.count("\n")):
        end = raw.index("\n", begin)
        tokens += raw[begin:end]
        line_starts.append(len(tokens))
        begin = end + 1
    tokens += raw[begin:]
    kinds = {text: token_kind(text) for text in set(tokens)}
    if None in kinds.values():
        index = min(tokens.index(text) for text, kind in kinds.items() if kind is None)
        line, column = locate(source, line_starts, index)
        raise QasmError(_lexical_error(tokens[index]), line=line, column=column)
    return tokens, line_starts, kinds


def locate(source: str, line_starts: list[int], index: int) -> tuple[int, int]:
    """Line and column of token ``index`` of :func:`scan`'s token list."""
    line = bisect_right(line_starts, index) + 1
    position = index - (line_starts[line - 2] if line > 1 else 0)
    matches = TOKEN_PATTERN.finditer(source.split("\n")[line - 1])
    return line, _column(next(islice(matches, position, None)))


def tokenize(source: str) -> list[Token]:
    """Tokenize OpenQASM 2.0 ``source`` into a list ending with an EOF token."""
    raw = TOKEN_PATTERN.findall(source)
    kinds = {text: token_kind(text) for text in set(raw)}
    tokens: list[Token] = []
    line = 1
    line_start = position = 0
    for text in raw:
        kind = kinds[text]
        if kind is _NEWLINE:
            line += 1
            line_start = position = source.find(text, position) + 1
            continue
        if kind is None or kind is _EOF:
            break
        # Only blanks separate a token from the one before it on its line,
        # so it starts at the next occurrence of its text.
        start = source.find(text, position)
        tokens.append(Token(kind, text[1:-1] if kind is _STRING else text, line, start - line_start + 1))
        position = start + len(text)
    column = _column(TOKEN_PATTERN.search(source, position)) - line_start
    if kind is None:
        raise QasmError(_lexical_error(text), line=line, column=column)
    tokens.append(Token(_EOF, "", line, column))
    return tokens
