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
    """
    heavy = [i for i, a in enumerate(ws) if a >= 2]
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
    dividing all four, g divides gcd(a1, a2), so the walk visits P1P2 (if
    nothing fails before it), and its local weight a3 shares g with the
    index r = gcd(a1, a2); the walk raises there.  Three weights with a
    common factor are rejected the same way, at the stratum of two of
    them.
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

    The loop never builds a system that the one-variable subsets {4} and
    {3} of `is_quasismooth_general` reject.  Write s = a1+a2+a3, so that
    d = s + a4.  At the vertex P4 the member needs x4^k or x4^k*x_e of
    degree d, so a4 divides one of s, s-1, s-a1, s-a2, s-a3; each of these
    is positive and at most s <= 3*a3 <= 3*a4, so a4 = t/k for one of them
    (t) and k in {1, 2, 3}.  At P3, likewise, a3 must divide one of d,
    d-1, d-a1, d-a2, d-a4.  Both tests are exactly the subset-{4} and
    subset-{3} cases of the quasismoothness criterion, and every survivor
    still goes through both predicates, so the pruning is exact: the
    result is that of trying every 1 <= a1 <= a2 <= a3 <= a4 <= a4_bound.

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
                s = a1 + a2 + a3
                a4s = set()
                for t in (s, s - 1, s - a1, s - a2, s - a3):
                    for k in (1, 2, 3):
                        if t % k == 0 and a3 <= t // k <= a4_bound:
                            a4s.add(t // k)
                for a4 in a4s:
                    d = s + a4
                    if d % a3 and (d - 1) % a3 and (d - a1) % a3 and (d - a2) % a3 and (d - a4) % a3:
                        continue
                    w = Weights(a1, a2, a3, a4)
                    if is_quasismooth_general(w) and has_only_terminal_isolated_sings(w):
                        out.append(w)
    out.sort(key=lambda w: (w.degree, tuple(w)))
    return out
