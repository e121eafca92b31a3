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
    system with three weights sharing a factor.  It runs the walk before
    the criterion: at bound 40 the walk sees 95 systems and accepts them
    all.
    """
    try:
        for _point in singular_points(w):
            pass
    except NonTerminalError:
        return False
    return True


def _vertex_pairs(a3: int, a4: int):
    """Yield, once each, the pairs (a1, a2) with 1 <= a1 <= a2 <= a3 at
    which P(1, a1, a2, a3, a4) passes the vertex tests at P4 and P3, by
    the sum lines and member lines of `enumerate_families`."""
    sums4 = {-a3 % a4, 0}  # sigma mod a4 of the P4 sum lines
    sums3 = {-a4 % a3, 0}  # sigma mod a3 where P3 holds on the whole line
    m4 = -a3 % a4 or a4  # the fixed weight of the P4 member line
    m3 = -a4 % a3 or a3  # the weight that meets P3 on any line
    for r in sums4:
        for sigma in range(2 + (r - 2) % a4, 2 * a3 + 1, a4):
            if sigma % a3 in sums3:
                for a1 in range(max(1, sigma - a3), sigma // 2 + 1):
                    yield a1, sigma - a1
            elif 1 <= sigma - m3 <= a3:
                yield min(m3, sigma - m3), max(m3, sigma - m3)
    if m4 <= a3:
        if m4 == m3:
            others = range(1, a3 + 1)
        else:
            others = {m3} | {(r - m4) % a3 or a3 for r in sums3}
        for x in others:
            if (m4 + x) % a4 not in sums4:  # else yielded on its sum line
                yield min(m4, x), max(m4, x)


def enumerate_families(a4_bound: int) -> list[Weights]:
    """All admissible weight systems with a4 <= a4_bound, sorted by
    (degree, weights).

    The loop never builds a system that one of two exact integer tests
    rejects.  Each test is necessary for a system that both predicates
    accept, not sufficient, so every survivor goes through the walk, and
    every system the walk accepts goes through the criterion; the result
    is that of trying both predicates on every
    1 <= a1 <= a2 <= a3 <= a4 <= a4_bound.

    * The four vertices: a_i divides d - c for some c in
      {0, a1, a2, a3, a4}.  This is the vertex condition of the K3
      elephant, the general member {x0 = 0} of degree d in
      P(a1, a2, a3, a4): x_i^k or x_i^k*x_e of degree d with e != 0.
      The threefold's own vertex test also allows the eliminator x0 of
      weight 1, c = 1, but the walk rules that case out:
      - Suppose x0 is the only eliminator at P_i.  Then the local weights
        at P_i are the other three a's, and they sum to
        d - a_i = 1 (mod a_i).
      - A terminal 1/r(1, a, r-a) needs two of them to sum to 0 mod a_i,
        so the third, a_l, is = 1 = d (mod a_i).
      - Then x_i^k*x_l has degree d, so x0 was not the only eliminator.
      So the test rests on the walk's terminality, not on
      quasismoothness alone: P(1, 3, 4, 4, 5) is quasismooth only through
      x0 at P4, and its P4 point 1/5(3, 4, 4) is not terminal.
    * No three weights with a common factor: the walk of
      `has_only_terminal_isolated_sings` rejects them all (see there).

    The loop runs over the two largest weights a3 <= a4 and solves the
    vertex conditions at P4 and P3 for (a1, a2) instead of scanning
    (`_vertex_pairs`); P2 and P1, then the common factors, are tested on
    each pair it yields.  Write sigma = a1 + a2, so d = sigma + a3 + a4 and
    2 <= sigma <= 2*a3.

    1. P4 with c in {0, a3, a4} is a condition on sigma alone:
       sigma = c - a3 (mod a4).  Each such sigma gives a *sum line*, all
       pairs with a1 + a2 = sigma.
    2. P4 with c = a1 reads a2 = -a3 (mod a4), and c = a2 reads
       a1 = -a3 (mod a4).  In 1..a3 the only such weight is
       m4 = a4 - a3, or m4 = a3 when a3 = a4, and there is none when
       a4 - a3 > a3.  A pair with one weight m4 and the other free in
       1..a3 lies on the *member line*.  A pair meets P4 exactly when it
       lies on a sum line or on the member line.
    3. P3 is the same with a3 and a4 swapped: sigma = c - a4 (mod a3) for
       c in {0, a3, a4}, or one weight equal to m3, the only weight
       in 1..a3 that is = -a4 (mod a3).
    4. On a sum line, P3 holds on the whole line when sigma satisfies
       its congruence, and otherwise only at the pair {m3, sigma - m3}.
    5. On the member line {m4, x}, P3 holds for every x when m4 = m3.
       Otherwise it holds at x = m3 and at the x in 1..a3 with
       m4 + x = c - a4 (mod a3), one for each of the two residues: at
       most 3 values of x.  A member-line pair whose sum is on a sum line
       was yielded there and is skipped.
    6. No pair meets P4 when a4 > 3*a3: then d - a4 = sigma + a3 < a4,
       and every other d - c lies strictly between a4 and 2*a4.  So the
       loop over a4 stops at 3*a3.

    So each pair meeting P4 and P3 is yielded once, and the work is one
    step per pair (a3, a4) and per sum line, plus one per yielded pair:
    O(a4_bound**2) plus the output, where a scan of the triples (a1, a2,
    a3) is O(a4_bound**3).

    The result is monotone in the bound; a4_bound >= 33 is known to yield
    the complete list of 95 families (larger bounds add nothing, but that
    is a theorem, not something this routine re-proves).  A bound that is
    not an int, a bool among them, or is below 1 is a ValueError.
    """
    if type(a4_bound) is not int or a4_bound < 1:
        raise ValueError(f"a4_bound must be an integer >= 1, got {a4_bound!r}")
    out = []
    for a3 in range(1, a4_bound + 1):
        for a4 in range(a3, min(a4_bound, 3 * a3) + 1):
            for a1, a2 in _vertex_pairs(a3, a4):
                d = a1 + a2 + a3 + a4
                for a in (a2, a1):
                    if (d % a and (d - a1) % a and (d - a2) % a
                            and (d - a3) % a and (d - a4) % a):
                        break
                else:
                    if (gcd(a1, a2, a3) > 1 or gcd(a1, a2, a4) > 1
                            or gcd(a1, a3, a4) > 1 or gcd(a2, a3, a4) > 1):
                        continue
                    w = Weights(a1, a2, a3, a4)
                    if has_only_terminal_isolated_sings(w) and is_quasismooth_general(w):
                        out.append(w)
    out.sort(key=lambda w: (w.degree, tuple(w)))
    return out
