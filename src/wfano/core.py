"""Exact arithmetic for weighted projective hypersurfaces.

Everything here is a small, pure function on integers and
`fractions.Fraction`; no floats anywhere.  The central objects are the
weight system of an ambient space P(1, a1, a2, a3, a4), representability
of a weighted degree, and cyclic quotient singularity types 1/r(1, a, r-a).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class InputError(ValueError):
    """Bad input: malformed dataset or tower text, an unknown family, or a
    dataset record that is not an admissible family.  The command line
    reports it and exits 2; every other error is a bug."""


class NonTerminalError(ValueError):
    """A point of the general member that is not an isolated terminal
    quotient 1/r(1, a, r-a).  It fails in one of four ways: a local weight
    is 0 mod r or not prime to r; no unit of Z/r brings the local weights
    to (1, a, r-a); no variable can be eliminated at a vertex, so the
    member is not quasismooth there; or a whole stratum curve lies inside
    the member."""


@dataclass(frozen=True, order=True)
class Weights:
    """The four non-trivial weights of an ambient P(1, a1, a2, a3, a4).

    The leading weight 1 is implicit.  A general hypersurface of degree
    d = a1+a2+a3+a4 in this space is anticanonically embedded.
    """

    a1: int
    a2: int
    a3: int
    a4: int

    def __post_init__(self):
        ws = (self.a1, self.a2, self.a3, self.a4)
        if any(not isinstance(w, int) or w < 1 for w in ws):
            raise ValueError(f"weights must be positive integers, got {ws}")
        if list(ws) != sorted(ws):
            raise ValueError(f"weights must be ascending, got {ws}")

    def __iter__(self):
        return iter((self.a1, self.a2, self.a3, self.a4))

    def __str__(self):
        return f"P(1,{self.a1},{self.a2},{self.a3},{self.a4})"

    @property
    def degree(self) -> int:
        """Degree of the anticanonically embedded hypersurface."""
        return self.a1 + self.a2 + self.a3 + self.a4

    @property
    def ambient(self) -> tuple[int, int, int, int, int]:
        """All five ambient weights, including the implicit 1."""
        return (1, self.a1, self.a2, self.a3, self.a4)


def anticanonical_cube(w: Weights) -> Fraction:
    """Anticanonical degree -K^3 = d / (a1*a2*a3*a4) of the general member."""
    return Fraction(w.degree, w.a1 * w.a2 * w.a3 * w.a4)


def extend_reach(mask: int, weight: int, cap: int) -> int:
    """Extend a reach mask by one weight, up to `cap`.

    Bit k of a reach mask is set iff k is a non-negative integer
    combination of the weights it was built from; the mask of no weights
    is 1.  The step ORs in the mask shifted by every multiple of `weight`
    up to `cap`, by doubling: the shifts by weight, 2*weight, ...,
    2^j*weight, the last <= cap, cover every multiplicity below 2^(j+1),
    which exceeds cap/weight, in O(log) shifts instead of one per copy.
    If `mask` is correct on every bit <= cap, so is the result: a sum
    k <= cap of the new weights is u + m*weight with u <= k reachable
    before and m*weight <= cap.  Bits above cap are true sums but may be
    missing.  `weight` must be positive.
    """
    s = weight
    while s <= cap:
        mask |= mask << s
        s *= 2
    return mask


def is_representable(target: int, weights: tuple[int, ...]) -> bool:
    """Is `target` a sum of the given weights with non-negative multiplicities?

    A fold of `extend_reach` with cap `target` over the distinct weights,
    starting from the mask 1 of no weights; the result is correct on every
    bit <= target, so its bit `target` is the answer.  A negative target is
    never a sum.
    """
    if target < 0:
        return False
    mask = 1
    for w in set(weights):
        mask = extend_reach(mask, w, target)
    return bool(mask >> target & 1)


@dataclass(frozen=True, order=True)
class QuotientSingularityType:
    """A terminal cyclic quotient singularity 1/r(1, a, r-a)."""

    r: int
    a: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"index must be >= 2, got {self.r}")
        if not (1 <= self.a <= self.r - self.a):
            raise ValueError(f"need 1 <= a <= r-a, got a={self.a}, r={self.r}")
        if gcd(self.a, self.r) != 1:
            raise ValueError(f"need gcd(a, r) = 1, got a={self.a}, r={self.r}")

    def __str__(self):
        return f"1/{self.r}(1,{self.a},{self.r - self.a})"

    @property
    def discrepancy_cube_drop(self) -> Fraction:
        """The amount 1/(r*a*(r-a)) by which -K^3 drops under the weighted
        blow up of this point with weights (1, a, r-a)."""
        return Fraction(1, self.r * self.a * (self.r - self.a))


def normalize_singularity(r: int, q1: int, q2: int, q3: int) -> QuotientSingularityType:
    """Bring a cyclic quotient 1/r(q1, q2, q3) to the form 1/r(1, a, r-a).

    The defining data is only determined up to multiplying all three local
    weights by a unit of Z/r, so we search the units.  Raises
    NonTerminalError when some local weight is 0 mod r (the singular locus
    would be positive-dimensional) or not prime to r, and when no unit
    produces the (1, a, r-a) shape.
    """
    if r < 2:
        raise ValueError(f"index must be >= 2, got {r}")
    qs = [q % r for q in (q1, q2, q3)]
    if any(q == 0 for q in qs):
        raise NonTerminalError(f"1/{r}({q1},{q2},{q3}) has a weight divisible by {r}")
    if any(gcd(q, r) != 1 for q in qs):
        raise NonTerminalError(f"1/{r}({q1},{q2},{q3}) is not isolated-terminal")
    for u in range(1, r):
        if gcd(u, r) != 1:
            continue
        s = sorted(q * u % r for q in qs)
        if s[0] == 1 and s[1] + s[2] == r:
            return QuotientSingularityType(r, min(s[1], s[2]))
    raise NonTerminalError(f"1/{r}({q1},{q2},{q3}) admits no terminal presentation")
