"""Search for weight systems whose general anticanonical hypersurface is a
quasismooth Fano threefold with only terminal cyclic quotient singularities.

The search space is quadruples 1 <= a1 <= a2 <= a3 <= a4, with the
hypersurface degree fixed to d = a1+a2+a3+a4.  Two independent predicates
are combined:

* `is_quasismooth_general` -- the general member has smooth affine cone away
  from the origin: the threefold instance of `is_quasismooth(ws, d)`, the
  classical combinatorial criterion on subsets of variables, for a general
  hypersurface in any weighted projective space.
* `has_only_terminal_isolated_sings` -- the quotient singularities cut out
  on the hypersurface are isolated points of type 1/r(1, a, r-a).
"""
from __future__ import annotations

from itertools import combinations
from math import gcd

from .core import NonTerminalError, Weights, extend_reach
# unused here, but bench/test_tracing.py looks the name up in this module
from .core import is_representable  # noqa: F401
from .singularities import singular_points


def is_quasismooth(ws: tuple[int, ...], d: int) -> bool:
    """Criterion for the general degree-d hypersurface in P(ws) to be
    quasismooth.

    For every non-empty subset I of the variables, either some monomial of
    degree d lives on the I-coordinates alone, or for at least |I| distinct
    outside variables x_e the degree d - wt(x_e) is representable in the
    I-weights.  A subset containing a weight-1 variable x always passes
    (x^d exists), so only subsets of the variables of weight >= 2 are
    examined.

    Each examined subset gets one reach mask with cap d (see `core`),
    built by `extend_reach` from the mask of the subset without its last
    variable, which an earlier, smaller size already built; all its tests
    read that mask: bit d, then bit d - wt(x_e) for each variable x_e.  This
    is exact: a mask with cap d is correct on every bit <= d, extending
    one correct up to d by a weight keeps it correct up to d, and every
    bit read is <= d.  A target d - wt(x_e) < 0 is never representable,
    hence the guard wt(x_e) <= d.  A variable of I never counts once bit d
    is clear, since d - wt(x_e) in the I-weights would put d there too, so
    the count runs over all variables.  The masks live only for the call.
    A weight < 1 is a ValueError.
    """
    heavy = [i for i, a in enumerate(ws) if a >= 2]
    if len(heavy) + ws.count(1) < len(ws):  # a weight neither 1 nor >= 2
        raise ValueError(f"weights must be positive, got {ws}")
    masks = {(): 1}
    for size in range(1, len(heavy) + 1):
        for subset in combinations(heavy, size):
            mask = masks[subset] = extend_reach(masks[subset[:-1]], ws[subset[-1]], d)
            if mask >> d & 1:
                continue
            hits = 0
            for a in ws:
                if a <= d and mask >> (d - a) & 1:
                    hits += 1
            if hits < size:
                return False
    return True


def is_quasismooth_general(w: Weights) -> bool:
    """Is the general anticanonical member of P(1, a1, a2, a3, a4) quasismooth?"""
    return is_quasismooth(w.ambient, w.degree)


def has_only_terminal_isolated_sings(w: Weights) -> bool:
    """Do the quotient points cut out on a general member stay terminal?

    The walk over the singular points of the member
    (`singularities.singular_points`) must finish without a
    NonTerminalError: a 1/r(1, a, r-a) quotient at every vertex and along
    every singular stratum, with no stratum curve inside the member.
    Weights with a common factor need no separate test.  With g >= 2
    dividing three of them, a_i, a_j and a_k, g divides gcd(a_i, a_j), so
    the walk visits P_iP_j (if nothing fails before it) and normalizes it,
    even when it carries no point; its local weight a_k shares g with the
    index r = gcd(a_i, a_j), and the walk raises there.  Four weights with
    a common factor are the case (i, j, k) = (1, 2, 3).
    `enumerate_families` relies on this rejection: it never builds a
    system with three weights sharing a factor.
    """
    try:
        for _point in singular_points(w):
            pass
    except NonTerminalError:
        return False
    return True


def enumerate_families(a4_bound: int = 40) -> list[Weights]:
    """All admissible weight systems with a4 <= a4_bound, sorted by
    (degree, weights).

    The loop never builds a system that one of two exact integer tests
    rejects; every survivor still goes through both predicates, so the
    result is that of trying every 1 <= a1 <= a2 <= a3 <= a4 <= a4_bound.

    * The four vertices: the one-variable subsets {i} of
      `is_quasismooth_general`.  At the vertex P_i the member needs x_i^k
      or x_i^k*x_e of degree d, so a_i divides one of d, d-1, d-a1, d-a2,
      d-a3, d-a4 (a weight 1 always does).  Write s = a1+a2+a3, so that
      d = s + a4.  At P4 this reads: a4 divides one of s, s-1, s-a1,
      s-a2, s-a3; each of these is positive and at most s <= 3*a4, so
      a4 = t/k for one of them (t) and k in {1, 2, 3}.  P3, P2 and P1 are
      tested once a4 is chosen.
    * No three weights with a common factor.  If g >= 2 divides a_i, a_j
      and a_k, the walk of `has_only_terminal_isolated_sings` reaches the
      stratum P_iP_j (unless it failed earlier), normalizes it even when
      it carries no point, and finds the local weight a_k not prime to the
      index gcd(a_i, a_j), a multiple of g; it raises NonTerminalError.
      A triple (a1, a2, a3) with a common factor is skipped before its a4
      are generated.

    The result is monotone in the bound; a4_bound >= 33 is known to yield
    the complete list of 95 families (larger bounds add nothing, but that
    is a theorem, not something this routine re-proves).
    """
    if a4_bound < 1:
        raise ValueError(f"a4_bound must be >= 1, got {a4_bound}")
    out = []
    for a3 in range(1, a4_bound + 1):
        for a2 in range(1, a3 + 1):
            for a1 in range(1, a2 + 1):
                if gcd(a1, a2, a3) > 1:
                    continue
                s = a1 + a2 + a3
                a4s = set()
                for t in (s, s - 1, s - a1, s - a2, s - a3):
                    for k in (1, 2, 3):
                        if t % k == 0 and a3 <= t // k <= a4_bound:
                            a4s.add(t // k)
                for a4 in a4s:
                    if gcd(a1, a2, a4) > 1 or gcd(a1, a3, a4) > 1 or gcd(a2, a3, a4) > 1:
                        continue
                    d = s + a4
                    for a in (a3, a2, a1):
                        if (d % a and (d - 1) % a and (d - a1) % a and (d - a2) % a
                                and (d - a3) % a and (d - a4) % a):
                            break
                    else:
                        w = Weights(a1, a2, a3, a4)
                        if is_quasismooth_general(w) and has_only_terminal_isolated_sings(w):
                            out.append(w)
    out.sort(key=lambda w: (w.degree, tuple(w)))
    return out
