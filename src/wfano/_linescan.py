"""Shared scanner for the line-oriented text formats: a line's fields are
its `str.split` tokens, and an error carries a 1-based line and column."""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from .core import InputError, Weights


class PositionedError(InputError):
    """Parse failure carrying a 1-based line/column and what was expected."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: expected {expected}")


# `\S` and `str.isspace` agree on every code point, so the i-th match here
# is token i of `str.split`; a column is found with it only on failure
_TOKEN = re.compile(r"\S+")
RATIONAL = r"(\d+)(?:/(0*[1-9]\d*))?"  # numerator, denominator; never zero


def rational(num: str, den: str | None) -> Fraction:
    """The value of a `RATIONAL` match's two groups, the numerator perhaps
    signed; `Fraction(text)` would parse the matched text a second time."""
    return Fraction(int(num), int(den or 1))


class LineCursor:
    """Reader of one line's whitespace-separated tokens, cut once by
    `str.split`.  A position is a token index: `pos` is the next token's,
    and `len(tokens)` stands for the end of the line."""

    __slots__ = ("lineno", "line", "tokens", "pos")

    def __init__(self, lineno: int, line: str):
        self.lineno = lineno
        self.line = line
        self.tokens = line.split()
        self.pos = 0

    def fail(self, expected: str, at: int | None = None):
        """Raise at token `at` (by default the next one): its 1-based column,
        or one past the line's last token if there is no such token."""
        m = next(islice(_TOKEN.finditer(self.line), self.pos if at is None else at, None), None)
        col = m.start() + 1 if m else len(self.line.rstrip()) + 1
        raise PositionedError(self.lineno, col, expected)

    def next_token(self, expected: str) -> str:
        """The next token; a missing one fails at the end of the line."""
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            self.fail(expected)
        self.pos += 1
        return tok

    def next_match(self, pattern: re.Pattern, expected: str) -> re.Match:
        """The next token, which `pattern` must match whole; one that does
        not fails at its own column, token `pos - 1`."""
        m = pattern.fullmatch(self.next_token(expected))
        if m is None:
            self.fail(expected, self.pos - 1)
        return m

    def next_int(self, expected: str) -> int:
        # ASCII digits only: `str.isdigit` alone also accepts '\u0661' and
        # '²', and `int` rejects the second
        tok = self.next_token(expected)
        if not (tok.isascii() and tok.isdigit()):
            self.fail(expected, self.pos - 1)
        return int(tok)

    def next_weights(self) -> Weights:
        """Four weights; an invalid system fails at the first of them."""
        at = self.pos
        ws = [self.next_int("weight") for _ in range(4)]
        try:
            return Weights(*ws)
        except ValueError as exc:
            self.fail(f"valid weights ({exc})", at)

    def at_end(self) -> bool:
        return self.pos == len(self.tokens)


def content_lines(source: str):
    """Yield (cursor, keyword) for each line that is neither blank nor a
    comment: both formats start every line with a keyword, token 0, which
    the cursor has read.  A line ends only at '\\n', '\\r\\n' or '\\r'.  A
    reader reads its line's fields before it asks for the next line; asking
    fails with `expected end of line` at the first token that the reader
    left."""
    # as text-mode reading and editors do: `str.splitlines` also ends a line
    # at '\f', '\x85', U+2028 and more, which would turn a comment's tail
    # into a content line and shift every later line number
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        cur = LineCursor(lineno, raw)
        if cur.tokens and cur.tokens[0][0] != "#":
            cur.pos = 1
            yield cur, cur.tokens[0]
            if cur.pos < len(cur.tokens):
                cur.fail("end of line")
