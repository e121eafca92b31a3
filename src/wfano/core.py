"""Exact arithmetic for weighted projective hypersurfaces.

Everything here is a small, pure function on integers and
`fractions.Fraction`; no floats anywhere.  The central objects are the
weight system of an ambient space P(1, a1, a2, a3, a4), representability
of a weighted degree, and cyclic quotient singularity types 1/r(1, a, r-a).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple


class InputError(ValueError):
    """Bad input: malformed dataset or tower text, an unknown family, a
    dataset record that is not an admissible family, or a Gram block with
    no unique solution.  The library raises it as is, or as a subclass
    where a caller catches that case by name.  The command line reports
    it and exits 2; every other error is a bug."""


class NonTerminalError(ValueError):
    """A point of the general member that is not an isolated terminal
    quotient 1/r(1, a, r-a).  It fails in one of four ways: a local weight
    is 0 mod r or not prime to r; no unit of Z/r brings the local weights
    to (1, a, r-a); no variable can be eliminated at a vertex, so the
    member is not quasismooth there; or a whole stratum curve lies inside
    the member."""


class _WeightFields(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int


class Weights(_WeightFields):
    """The four non-trivial weights of an ambient P(1, a1, a2, a3, a4).

    The leading weight 1 is implicit.  A general hypersurface of degree
    d = a1+a2+a3+a4 in this space is anticanonically embedded.  A tuple
    of the four weights, so it iterates, compares and orders as one.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` builds with it: both check

    def __new__(cls, a1: int, a2: int, a3: int, a4: int):
        ws = (a1, a2, a3, a4)
        # `is int`, not isinstance: a bool is an int but no weight
        if not type(a1) is type(a2) is type(a3) is type(a4) is int or min(ws) < 1:
            raise ValueError(f"weights must be positive integers, got {ws}")
        if not a1 <= a2 <= a3 <= a4:
            raise ValueError(f"weights must be ascending, got {ws}")
        return tuple.__new__(cls, ws)

    def __str__(self):
        return f"P(1,{self.a1},{self.a2},{self.a3},{self.a4})"

    @property
    def degree(self) -> int:
        """Degree of the anticanonically embedded hypersurface."""
        return sum(self)

    @property
    def ambient(self) -> tuple[int, int, int, int, int]:
        """All five ambient weights, including the implicit 1."""
        return (1, *self)


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
    missing.  A weight < 1 is a ValueError.
    """
    if weight < 1:
        raise ValueError(f"weight must be positive, got {weight}")
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
    never a sum; a weight < 1 is a ValueError.
    """
    if target < 0:
        return False
    mask = 1
    for w in set(weights):
        mask = extend_reach(mask, w, target)
    return bool(mask >> target & 1)


class _TypeFields(NamedTuple):
    r: int
    a: int


class QuotientSingularityType(_TypeFields):
    """A terminal cyclic quotient singularity 1/r(1, a, r-a), the tuple
    (r, a)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` builds with it: both check

    def __new__(cls, r: int, a: int):
        if r < 2:
            raise ValueError(f"index must be >= 2, got {r}")
        if not (1 <= a <= r - a):
            raise ValueError(f"need 1 <= a <= r-a, got a={a}, r={r}")
        if gcd(a, r) != 1:
            raise ValueError(f"need gcd(a, r) = 1, got a={a}, r={r}")
        return tuple.__new__(cls, (r, a))

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
    weights by a unit of Z/r.  A unit that gives (1, a, r-a) takes some q_i
    to 1, so only u = 1/q_i mod r is tried, for i = 1, 2, 3.  With x, y the
    other two weights in 1..r-1, the images x*u, y*u mod r lie in 1..r-1
    and sum to (x + y)*u mod r, so they sum to r iff x + y = r; then
    a = min(x*u mod r, r - x*u mod r).  Raises NonTerminalError when a
    local weight is 0 mod r (a positive-dimensional singular locus) or not
    prime to r, one test gcd(q1*q2*q3, r) != 1 as a prime divides a
    product iff it divides a factor, or when no unit gives (1, a, r-a).
    """
    if r < 2:
        raise ValueError(f"index must be >= 2, got {r}")
    p1, p2, p3 = q1 % r, q2 % r, q3 % r
    if 0 in (p1, p2, p3):
        raise NonTerminalError(f"1/{r}({q1},{q2},{q3}) has a weight divisible by {r}")
    if gcd(p1 * p2 * p3, r) != 1:
        raise NonTerminalError(f"1/{r}({q1},{q2},{q3}) is not isolated-terminal")
    for q, x, y in ((p1, p2, p3), (p2, p1, p3), (p3, p1, p2)):
        if x + y == r:
            x = x * pow(q, -1, r) % r
            return QuotientSingularityType(r, min(x, r - x))
    raise NonTerminalError(f"1/{r}({q1},{q2},{q3}) admits no terminal presentation")
