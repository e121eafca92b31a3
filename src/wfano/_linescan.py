"""Shared scanner for the line-oriented text formats (1-based positions)."""
from __future__ import annotations

import re

from .core import InputError, Weights


class PositionedError(InputError):
    """Parse failure carrying a 1-based line/column and what was expected."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: expected {expected}")


def is_int(tok: str) -> bool:
    """Is the token a non-negative integer in ASCII digits?  (`str.isdigit`
    also accepts digits such as '²' that `int` rejects.)"""
    return tok.isascii() and tok.isdigit()


# `\S` and `str.isspace` agree on every code point, so a token here is what
# `str.split` would give
_TOKEN = re.compile(r"\S+")


class LineCursor:
    """Whitespace-separated token scanner over one line."""

    def __init__(self, lineno: int, line: str, error=PositionedError):
        self.lineno = lineno
        self.line = line.rstrip()
        self.pos = 0
        self._error = error

    def fail(self, expected: str, col: int | None = None):
        raise self._error(self.lineno, self.pos + 1 if col is None else col, expected)

    def next_col(self) -> int:
        """Skip whitespace; the 1-based column of the next token (one past
        the end of the line if there is none)."""
        m = _TOKEN.search(self.line, self.pos)
        self.pos = m.start() if m else len(self.line)
        return self.pos + 1

    def next_token(self, expected: str) -> tuple[str, int]:
        m = _TOKEN.search(self.line, self.pos)
        if m is None:
            self.pos = len(self.line)
            self.fail(expected)
        self.pos = m.end()
        return m.group(), m.start() + 1

    def next_int(self, expected: str) -> int:
        tok, col = self.next_token(expected)
        if not is_int(tok):
            self.fail(expected, col)
        return int(tok)

    def next_weights(self) -> Weights:
        """Four weights; an invalid system fails at the first of them."""
        col = self.next_col()
        ws = [self.next_int("weight") for _ in range(4)]
        try:
            return Weights(*ws)
        except ValueError as exc:
            self.fail(f"valid weights ({exc})", col)

    def rest(self) -> str:
        return self.line[self.pos:].strip()

    def at_end(self) -> bool:
        return _TOKEN.search(self.line, self.pos) is None

    def expect_end(self):
        if not self.at_end():
            tok, col = self.next_token("end of line")
            self.fail("end of line", col)


def content_lines(source: str):
    """Yield (lineno, line) for lines that are neither blank nor comments."""
    for lineno, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, raw
