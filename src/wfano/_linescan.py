"""Shared scanner for the line-oriented text formats (1-based positions)."""
from __future__ import annotations

import re
from fractions import Fraction

from .core import InputError, Weights


class PositionedError(InputError):
    """Parse failure carrying a 1-based line/column and what was expected."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: expected {expected}")


# `\S` and `str.isspace` agree on every code point, so a token here is what
# `str.split` would give
_TOKEN = re.compile(r"\S+")
# ASCII only: `\d` alone matches any decimal digit, such as '\u0661', and
# `str.isdigit` also accepts '²', which `int` rejects
_INT = re.compile(r"\d+", re.ASCII)
RATIONAL = r"(\d+)(?:/(0*[1-9]\d*))?"  # numerator, denominator; never zero


def rational(num: str, den: str | None) -> Fraction:
    """The value of a `RATIONAL` match's two groups, the numerator perhaps
    signed; `Fraction(text)` would parse the matched text a second time."""
    return Fraction(int(num), int(den or 1))


class LineCursor:
    """Whitespace-separated token scanner over one line."""

    def __init__(self, lineno: int, line: str):
        self.lineno = lineno
        self.line = line.rstrip()
        self.pos = 0

    def fail(self, expected: str, col: int | None = None):
        raise PositionedError(self.lineno, self.pos + 1 if col is None else col, expected)

    def next_col(self) -> int:
        """Skip whitespace; the 1-based column of the next token (one past
        the end of the line if there is none)."""
        m = _TOKEN.search(self.line, self.pos)
        self.pos = m.start() if m else len(self.line)
        return self.pos + 1

    def next_token(self, expected: str) -> tuple[str, int]:
        m = _TOKEN.search(self.line, self.pos)
        if m is None:
            self.fail(expected, len(self.line) + 1)
        self.pos = m.end()
        return m.group(), m.start() + 1

    def next_match(self, pattern: re.Pattern, expected: str) -> re.Match:
        """The next token, which `pattern` must match whole; a missing token
        fails at the end of the line, one that does not match at its own
        column.  The match is taken in the line, so the token's column is
        `m.start() + 1`."""
        _, col = self.next_token(expected)
        m = pattern.fullmatch(self.line, col - 1, self.pos)
        if m is None:
            self.fail(expected, col)
        return m

    def next_int(self, expected: str) -> int:
        return int(self.next_match(_INT, expected).group())

    def next_weights(self) -> Weights:
        """Four weights; an invalid system fails at the first of them."""
        col = self.next_col()
        ws = [self.next_int("weight") for _ in range(4)]
        try:
            return Weights(*ws)
        except ValueError as exc:
            self.fail(f"valid weights ({exc})", col)

    def at_end(self) -> bool:
        return _TOKEN.search(self.line, self.pos) is None

    def expect_end(self):
        if not self.at_end():
            self.fail("end of line", self.next_col())


def content_lines(source: str):
    """Yield (cursor, keyword, column) for each line that is neither blank
    nor a comment: both formats start every line with a keyword, which the
    cursor has read.  A line ends only at '\\n', '\\r\\n' or '\\r'.  A reader
    reads its line's fields before it asks for the next line; asking fails
    with `expected end of line` at the first token that the reader left."""
    # as text-mode reading and editors do: `str.splitlines` also ends a line
    # at '\f', '\x85', U+2028 and more, which would turn a comment's tail
    # into a content line and shift every later line number
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            cur = LineCursor(lineno, raw)
            yield cur, *cur.next_token("keyword")
            cur.expect_end()
