"""Singular loci of a general quasismooth hypersurface: which ambient
quotient points end up on it, and with which transverse types.

`quotient_points(ws, d)` walks a general hypersurface of degree d in any
weighted projective space P(ws); `singular_points(w)` is its instance for
the anticanonical threefold in P(1, a1, a2, a3, a4).  Loci are named by
indices into the ambient weights, which for the threefold are the
dataset's labels: "P3" is the vertex of the weight-a3 coordinate, "P2P4"
the one-dimensional stratum where only the weight-a2 and weight-a4
coordinates survive.

`basket(w)` gathers the points into a `Basket`, a frozen dataclass that
lives in `wfano._basket` and is imported inside `basket` only: this module
is on the dataset load's path, and the load builds no basket, so it never
pays for `import dataclasses`.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .core import NonTerminalError, QuotientSingularityType, Weights, normalize_singularity

if TYPE_CHECKING:
    from ._basket import Basket


class Annotation(NamedTuple):
    """A row's `BC b c`, `QI text` or `EI text`: its tag, and the pair
    (b, c) or the verbatim text."""

    tag: str
    value: tuple[int, int] | str

    def __str__(self):
        """The annotation as the dataset writes it, `BC 2 0` or `QI yw^2,7,12`."""
        v = self.value
        return f"{self.tag} {v if isinstance(v, str) else ' '.join(map(str, v))}"


class TableRow(NamedTuple):
    """A singular locus: a dataset row verbatim, or a `basket` point in normal form."""

    locus: str
    count: int
    local_weights: tuple[int, int, int]
    sing_type: QuotientSingularityType  # the type normalized to 1/r(1,a,r-a)
    annotation: Annotation | None = None

    def type_text(self) -> str:
        q = self.local_weights
        return f"1/{self.sing_type.r}({q[0]},{q[1]},{q[2]})"

    def __str__(self):
        """The row as the dataset writes it, after the `row` keyword."""
        words = [self.locus, f"{self.count}x", self.type_text()]
        if self.annotation is not None:
            words.append(str(self.annotation))
        return " ".join(words)


def type_counts(rows) -> dict[QuotientSingularityType, int]:
    """Points per type over `TableRow`s, recorded or computed."""
    counts: dict[QuotientSingularityType, int] = {}
    for row in rows:
        counts[row.sing_type] = counts.get(row.sing_type, 0) + row.count
    return counts


def _ambient(ws: tuple[int, ...]) -> str:
    return f"P({','.join(map(str, ws))})"


def _outside(ws: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    return tuple([b for m, b in enumerate(ws) if m != i and m != j])


def quotient_points(ws: tuple[int, ...], d: int) -> Iterator[tuple[int, int, tuple[int, ...], str]]:
    """Walk the quotient points of a general hypersurface of degree d in
    P(ws), d at least every weight: (count, r, local weights, locus), the
    point being 1/r(local weights) before any normalization.

    Vertices come first: P{i} lies on the hypersurface when a_i >= 2 does
    not divide d.  Its type is read off by eliminating one variable x_j
    with a monomial x_i^k x_j of degree d, so 1/r of the weights other
    than a_i and a_j with r = a_i.  Every eliminator has weight = d mod
    a_i, so any of them leaves the same local weights mod a_i; the first
    one is used.  With no eliminator the hypersurface is not quasismooth
    at P{i}, a NonTerminalError.

    Then each stratum P{i}P{j} with r = gcd(a_i, a_j) >= 2, once: count
    `stratum_points` points, each 1/r of the weights outside the stratum.
    A stratum that meets the hypersurface only at vertices yields count 0.
    """
    for i, r in enumerate(ws):
        if r >= 2 and d % r:
            for j, a in enumerate(ws):
                # j = i never matches: there a_j = r, and d % r != 0
                if (d - a) % r == 0:
                    yield 1, r, _outside(ws, i, j), f"P{i}"
                    break
            else:
                raise NonTerminalError(f"no monomial x_{i}^k*x_j of degree {d} for {_ambient(ws)}")
    for i, j in combinations(range(len(ws)), 2):
        r = gcd(ws[i], ws[j])
        if r >= 2:
            yield stratum_points(ws, d, i, j), r, _outside(ws, i, j), f"P{i}P{j}"


def stratum_points(ws: tuple[int, ...], d: int, i: int, j: int) -> int:
    """Number of points of a general hypersurface of degree d in P(ws) on
    the stratum P{i}P{j}, vertices excluded.

    The monomials of degree d in x_i and x_j alone are x_i^m x_j^n with
    m*a_i + n*a_j = d.  Their exponent pairs form one progression, m in
    steps of a_j/g and n in steps of a_i/g with g = gcd(a_i, a_j), so the
    restriction of the general polynomial is x_i^ei x_j^ej times a general
    binary form in x_i^(a_j/g) and x_j^(a_i/g) of degree pairs - 1, whose
    roots are the points with both coordinates non-zero.  With no pair the
    whole stratum curve lies inside the hypersurface, a NonTerminalError.

    The pairs are counted in closed form: there are none unless g divides
    d, and then m*a_i = d (mod a_j) reads m = m0 (mod step) with
    step = a_j/g and m0 = (d/g)*(a_i/g)^-1 mod step: the m in 0..d // a_i
    are m0, m0 + step, ..., (d // a_i - m0) // step + 1 of them when
    m0 <= d // a_i and none otherwise.
    """
    a, b = ws[i], ws[j]
    g = gcd(a, b)
    step, top = b // g, d // a
    m0 = d // g * pow(a // g, -1, step) % step
    if d % g or m0 > top:
        raise NonTerminalError(f"stratum P{i}P{j} lies inside the general member of {_ambient(ws)}")
    return (top - m0) // step


@lru_cache(maxsize=None)
def singular_points(w: Weights) -> tuple[tuple[int, QuotientSingularityType, str], ...]:
    """The threefold instance of `quotient_points`: (count, type, locus)
    for each quotient point of the general member of w, in walk order,
    every type normalized to 1/r(1, a, r-a).  A stratum of count 0 is
    normalized all the same; this is what rejects three weights with a
    common factor.  Raises one NonTerminalError at the first point that
    is not a terminal quotient point.

    Memoized per process: the walk runs once for each weight system it
    accepts, and `has_only_terminal_isolated_sings`, `basket`, the dataset
    load and a `.tower` header all share that one tuple.  A raised
    NonTerminalError is not stored, so a rejected system is walked again
    on each call; every system the walk accepts with a4 <= 33 is one of
    the 95 families, which bounds what the memo holds in practice.
    `singular_points.cache_clear()` empties it.
    """
    return tuple(
        (count, normalize_singularity(r, *qs), locus)
        for count, r, qs, locus in quotient_points(w.ambient, w.degree)
    )


def basket(w: Weights) -> Basket:
    """All quotient points of the general member, vertices and strata, as
    rows in the order of `Basket`: each type in normal form, no annotation.
    The walk names each locus once, so no two rows need merging."""
    rows = [TableRow(locus, c, (1, t.a, t.r - t.a), t)
            for c, t, locus in singular_points(w) if c > 0]
    rows.sort(key=lambda row: (-row.sing_type.r, row.count, row.sing_type.a, row.locus))
    from ._basket import Basket  # here, so the dataset load never imports `dataclasses`

    return Basket(tuple(rows))
