"""SQL tokenizer: one compiled master regex over the statement text.

Each alternative of ``_TOKEN`` is one token class; whitespace and ``--``
comments match too and are dropped, and any other single character
matches last, as an error.  Tokens carry their offset in the text; line
and column are computed from it only when something asks for them (an
error message).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "ASC", "DESC", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT",
    "JOIN", "INNER", "LEFT", "OUTER", "CROSS", "ON", "IS", "NULL",
    "TRUE", "FALSE", "BETWEEN", "IN", "LIKE", "CASE", "WHEN", "THEN",
    "ELSE", "END", "CREATE", "TABLE", "DROP", "INSERT", "INTO", "VALUES",
    "IF", "EXISTS", "UNION", "ALL", "DATE", "TIME", "CAST",
}
# EXPLAIN is deliberately NOT a keyword: it is recognized only at statement
# start (parser), so 'explain' stays usable as a column/table identifier.

SYMBOLS = ("<>", "!=", "<=", ">=", "||", "<", ">", "=", "(", ")", ",",
           "+", "-", "*", "/", "%", ".", ";")

_SKIP = r"[ \t\r\n]+|--[^\n]*"
# Digits, at most one dot, then an exponent (a sign alone suffices).
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE](?:[+-]|(?=\d))\d*)?"
# '' inside a string is a quote; a string ends at a lone quote.
_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_QUOTED = r'"[^"]*"'
_WORD = r"[^\W\d]\w*"

_TOKEN = re.compile(
    f"(?P<SKIP>{_SKIP})|(?P<NUMBER>{_NUMBER})|(?P<STRING>{_STRING})"
    f"|(?P<QUOTED>{_QUOTED})|(?P<WORD>{_WORD})"
    "|(?P<SYMBOL>" + "|".join(map(re.escape, SYMBOLS)) + ")"
    "|(?P<ERROR>.)", re.DOTALL)
"""Identifiers start with a letter or ``_`` and continue with letters,
digits and ``_``; numbers use decimal digits.  ``WORD`` also matches a
word that starts with some other non-decimal word character (``½``,
``Ⅻ``, ``²``); :func:`tokenize` rejects it as an unexpected character."""

LITERAL_RUNS = re.compile(
    f"((?:{_SKIP}|({_QUOTED}|{_WORD}|"
    + "|".join(r"\.(?!\d)" if symbol == "." else re.escape(symbol)
               for symbol in SYMBOLS)
    + f"))*)(?:({_NUMBER})|({_STRING})|(.))?", re.DOTALL)
"""The text as runs of non-literal tokens, each followed by one literal.

``findall`` gives ``(run, run's last token, number, string, error)``
per run: the run is whitespace, comments, quoted identifiers, words and
symbols (a ``.`` before a digit starts a number, as in ``_TOKEN``); then
comes a number, a string, or a character no token starts with.  The runs
split the text exactly where :func:`tokenize` does, since both try the
same token patterns in the same order, so a statement's literals are
found without a token per word (:func:`repro.sql.parser.literal_key`).
"""


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is one of: KEYWORD, IDENT, NUMBER, STRING, SYMBOL, EOF.
    Keywords are upper-cased; identifiers keep their original spelling
    (quoted identifiers via double quotes preserve case and may collide
    with keywords).  ``offset`` is the token's start in ``text``.
    """

    kind: str
    value: str
    offset: int
    text: str

    @property
    def line(self) -> int:
        return _line_and_column(self.text, self.offset)[0]

    @property
    def column(self) -> int:
        return _line_and_column(self.text, self.offset)[1]

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "KEYWORD" and self.value in words

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == "SYMBOL" and self.value in symbols

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.value!r})"


def _line_and_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _error(message: str, text: str, offset: int) -> SqlSyntaxError:
    return SqlSyntaxError(message, *_line_and_column(text, offset))


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        value = match.group()
        start = match.start()
        if kind == "WORD":
            if not (value[0].isalpha() or value[0] == "_"):
                raise _error(f"unexpected character {value[0]!r}", text,
                             start)
            upper = value.upper()
            if upper in KEYWORDS:
                append(Token("KEYWORD", upper, start, text))
            else:
                append(Token("IDENT", value, start, text))
        elif kind == "STRING":
            append(Token("STRING", value[1:-1].replace("''", "'"), start,
                         text))
        elif kind == "QUOTED":
            append(Token("IDENT", value[1:-1], start, text))
        elif kind == "ERROR":
            if value == "'":
                raise _error("unterminated string literal", text, start)
            if value == '"':
                raise _error("unterminated quoted identifier", text, start)
            raise _error(f"unexpected character {value!r}", text, start)
        else:
            append(Token(kind, value, start, text))
    append(Token("EOF", "", len(text), text))
    return tokens
