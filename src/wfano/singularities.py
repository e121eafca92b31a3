"""Singular loci of a general quasismooth member: which ambient quotient
points end up on the hypersurface, and with which transverse types.

Loci are named the way the dataset names them: "P3" is the vertex of the
weight-a3 coordinate, "P2P4" the one-dimensional stratum where only the
weight-a2 and weight-a4 coordinates survive.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

from .core import NonTerminalError, QuotientSingularityType, Weights, normalize_singularity


class InconsistentPointError(RuntimeError):
    """Two computations of the same singular point disagree.  The geometry
    rules this out for every weight system, so it signals a bug here, not
    bad input."""


@dataclass(frozen=True)
class BasketEntry:
    count: int
    sing_type: QuotientSingularityType
    locus: str

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")

    def __str__(self):
        return f"{self.count} x {self.sing_type} at {self.locus}"


@dataclass(frozen=True)
class Basket:
    """The multiset of quotient points on a general member, as entries
    sorted by descending index r, then ascending count, a and locus."""

    entries: tuple[BasketEntry, ...]

    def __iter__(self):
        return iter(self.entries)

    def type_multiset(self) -> tuple[tuple[QuotientSingularityType, int], ...]:
        """Aggregate counts per singularity type, locus forgotten."""
        agg: dict[QuotientSingularityType, int] = {}
        for e in self.entries:
            agg[e.sing_type] = agg.get(e.sing_type, 0) + e.count
        return tuple(sorted(agg.items(), key=lambda kv: (-kv[0].r, kv[0].a)))


def coordinate_point_type(w: Weights, i: int) -> QuotientSingularityType:
    """Transverse quotient type of the general member at the vertex P_i.

    Requires the vertex to be a singular point of the member (weight >= 2
    and no pure power x_i^k of degree d).  The type is read off by eliminating
    one variable x_j with a monomial x_i^k x_j of degree d; as d exceeds
    every weight, a_i dividing d - a_j is enough.  Every eliminator has
    weight = d mod a_i, so removing any of them leaves the same local
    weights mod a_i; the first one is used.  With no eliminator the member
    is not quasismooth at P_i, a NonTerminalError.
    """
    if not 1 <= i <= 4:
        raise ValueError(f"vertex index must be in 1..4, got {i}")
    ws = w.ambient
    r = ws[i]
    if r < 2:
        raise ValueError(f"vertex P{i} has weight {r}; nothing to compute")
    d = w.degree
    if d % r == 0:
        raise ValueError(f"vertex P{i} does not lie on the general member")
    for j in range(5):
        if j != i and (d - ws[j]) % r == 0:
            others = [ws[m] for m in range(5) if m not in (i, j)]
            return normalize_singularity(r, *others)
    raise NonTerminalError(f"no monomial x_{i}^k*x_j of degree {d} for {w}")


def stratum_points(w: Weights, i: int, j: int) -> tuple[int, QuotientSingularityType]:
    """Number and type of the singular points cut out on the (i, j)-stratum,
    vertices excluded.

    The restriction of the general polynomial to the stratum coordinates
    factors as x_i^ei * x_j^ej * g; the residual degree of g, divided by
    lcm(a_i, a_j), counts the points with both coordinates non-zero.  The
    vertices, when they lie on the member, show up through ei/ej instead
    and are reported by `coordinate_point_type`.  When no monomial of
    degree d lives on the stratum, the whole stratum curve lies inside
    the member, a NonTerminalError.
    """
    ws = w.ambient
    r = gcd(ws[i], ws[j])
    if r < 2:
        raise ValueError(f"stratum P{i}P{j} of {w} carries no quotient")
    d = w.degree
    exps = [
        (m, (d - m * ws[i]) // ws[j])
        for m in range(d // ws[i] + 1)
        if (d - m * ws[i]) % ws[j] == 0
    ]
    if not exps:
        raise NonTerminalError(f"stratum P{i}P{j} lies inside the general member of {w}")
    ei = min(m for m, _ in exps)
    ej = min(n for _, n in exps)
    residual = d - ei * ws[i] - ej * ws[j]
    step = lcm(ws[i], ws[j])
    if residual % step:
        raise InconsistentPointError(
            f"residual degree {residual} on P{i}P{j} of {w} is not a multiple of {step}"
        )
    others = [ws[m] for m in range(5) if m not in (i, j)]
    return residual // step, normalize_singularity(r, *others)


def singular_points(w: Weights) -> Iterator[tuple[int, QuotientSingularityType, str]]:
    """Walk the quotient points of the general member: (count, type, locus)
    for each singular vertex on the member (weight >= 2, no pure power of
    degree d), then for each singular stratum (two weights with a common
    factor), each locus once.

    A stratum that meets the member only at vertices yields count 0, and
    its transverse type is checked all the same; this is what rejects
    three weights with a common factor.  Raises one NonTerminalError at
    the first point that is not a terminal quotient point.
    """
    ws = w.ambient
    for i in range(1, 5):
        if ws[i] >= 2 and w.degree % ws[i]:
            yield 1, coordinate_point_type(w, i), f"P{i}"
    for i, j in combinations(range(1, 5), 2):
        if gcd(ws[i], ws[j]) >= 2:
            count, typ = stratum_points(w, i, j)
            yield count, typ, f"P{i}P{j}"


def basket(w: Weights) -> Basket:
    """All quotient points of the general member, vertices and strata, in
    the order of `Basket`.  The walk names each locus once, so no two
    entries need merging."""
    entries = [BasketEntry(c, t, locus) for c, t, locus in singular_points(w) if c > 0]
    entries.sort(key=lambda e: (-e.sing_type.r, e.count, e.sing_type.a, e.locus))
    return Basket(tuple(entries))
