"""The `Basket` type that `singularities.basket` returns.

A module of its own, imported only inside `basket`: defining a frozen
dataclass needs `dataclasses`, whose import is about a third of a cold
`import wfano; load_families()`, and the dataset load builds no basket.
"""
from __future__ import annotations

from dataclasses import dataclass

from .singularities import TableRow


# a dataclass, not a tuple: bench/test_oracles.py rebuilds one with
# `dataclasses.replace`
@dataclass(frozen=True)
class Basket:
    """The multiset of quotient points on a general member, as rows sorted
    by descending index r, then ascending count, a and locus."""

    entries: tuple[TableRow, ...]

    def __iter__(self):
        return iter(self.entries)
