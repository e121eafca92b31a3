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

    The single-variable subsets {x_i} are the vertex conditions, decided
    first by remainders, before any mask is built.  At the vertex P_i
    every coordinate but x_i vanishes, so the general member misses P_i
    iff some x_i^k has degree d; otherwise it passes through P_i, its
    partial derivative by x_e there is the coefficient of x_i^k*x_e, and
    its cone is smooth over P_i iff some x_i^k*x_e has degree d -- the
    eliminator of `singularities.quotient_points`.  The test, a_i | d or
    a_i | d - a_e for some a_e <= d, reads the mask test's bits: the mask
    of {a_i} with cap d has bit k <= d iff a_i | k, and a subset of size 1
    needs one hit.  So a vertex rejection runs no `extend_reach`; the loop
    below still builds each single-variable mask for its supersets, but
    skips its test.

    Each examined subset is a bitmask s over the variables of weight >= 2,
    taken in increasing order, and gets one reach mask with cap d (see
    `core`), built by `extend_reach` from the mask of s without its lowest
    member, s & (s - 1), a smaller number and so already built; its size
    is s.bit_count(), and all its tests read that mask: bit d, then bit
    d - wt(x_e) for each variable x_e.  This is exact: a mask with cap d
    is correct on every bit <= d, extending one correct up to d by a
    weight keeps it correct up to d, and every bit read is <= d.  A target
    d - wt(x_e) < 0 is never representable, hence the guard wt(x_e) <= d.
    A variable of I never counts once bit d is clear, since d - wt(x_e) in
    the I-weights would put d there too, so the count runs over all
    variables.  The masks live only for the call.  A degree or a weight
    < 1 is a ValueError.

    Supersets of a subset that reaches d are pruned: when the mask of
    s & (s - 1) has bit d, so has the mask of s, which contains it, so s
    passes with no `extend_reach` and stores that smaller mask unchanged.
    A stored mask is thus always contained in the true reach set of its
    subset, so a set bit d in it is never wrong, and a stored mask without
    bit d was never pruned, nor was any mask it was built from, so it is
    exact and so is every mask extended from it.
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    heavy = [a for a in ws if a >= 2]
    if len(heavy) + ws.count(1) < len(ws):  # a weight neither 1 nor >= 2
        raise ValueError(f"weights must be positive, got {ws}")
    for r in heavy:  # the single-variable subsets, by remainders
        if d % r:
            for a in ws:
                if a <= d and (d - a) % r == 0:
                    break
            else:
                return False
    masks = [1]
    for s in range(1, 1 << len(heavy)):
        rest = s & (s - 1)  # s without its lowest member
        mask = masks[rest]
        if not mask >> d & 1:  # else s passes, as every superset of rest does
            mask = extend_reach(mask, heavy[(s ^ rest).bit_length() - 1], d)
        masks.append(mask)
        if not rest or mask >> d & 1:  # a single variable passed above
            continue
        hits = 0
        for a in ws:
            if a <= d and mask >> (d - a) & 1:
                hits += 1
        if hits < s.bit_count():
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
    all.  The walk is memoized (see `singular_points`), so a system
    accepted here is not walked again by `basket` or the dataset load.
    """
    try:
        singular_points(w)
    except NonTerminalError:
        return False
    return True


def _vertex_pairs(a3: int, a4: int):
    """Yield, once each, the pairs (a1, a2) with 1 <= a1 <= a2 <= a3 at
    which P(1, a1, a2, a3, a4) passes the four vertex tests and
    gcd(a1*a2, gcd(a3, a4)) = 1, by the sum lines and member lines of
    `enumerate_families`."""
    g = gcd(a3, a4)
    t = a3 + a4

    def meets(a, sigma):  # step 5: the P1/P2 test of a weight a of a pair summing to sigma
        return not ((sigma + t) % a and t % a and (sigma + a3) % a and (sigma + a4) % a)

    sums4 = {-a3 % a4, 0}  # sigma mod a4 of the P4 sum lines
    sums3 = {-a4 % a3, 0}  # sigma mod a3 where P3 holds on the whole line
    m4 = -a3 % a4 or a4  # the fixed weight of the P4 member line
    m3 = -a4 % a3 or a3  # the weight that meets P3 on any line
    for r in sums4:
        for sigma in range(2 + (r - 2) % a4, 2 * a3 + 1, a4):
            if sigma % a3 in sums3:
                for a1 in range(max(1, sigma - a3), sigma // 2 + 1):
                    if meets(sigma - a1, sigma) and meets(a1, sigma) and gcd(a1, g) == 1:
                        yield a1, sigma - a1
            elif g == 1 and 1 <= sigma - m3 <= a3:
                if meets(m3, sigma) and meets(sigma - m3, sigma):
                    yield min(m3, sigma - m3), max(m3, sigma - m3)
    if g == 1 and m4 <= a3:
        if m4 == m3:
            others = range(1, a3 + 1)
        else:
            others = {m3} | {(r - m4) % a3 or a3 for r in sums3}
        for x in others:
            # a pair whose sum is on a sum line was tested there
            if (m4 + x) % a4 not in sums4 and meets(m4, m4 + x) and meets(x, m4 + x):
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

    The loop runs over the two largest weights a3 <= a4 and solves all
    four vertex conditions, and the shared factors with both a3 and a4,
    for (a1, a2) instead of scanning (`_vertex_pairs`); the two
    shared-factor tests that involve both a1 and a2, gcd(a1, a2, a3) = 1
    and gcd(a1, a2, a4) = 1, are all that is left for each pair it
    yields.  Write sigma = a1 + a2, so d = sigma + a3 + a4 and
    2 <= sigma <= 2*a3, and g = gcd(a3, a4).

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
       On the member line {m4, x}, P3 holds for every x when m4 = m3.
       Otherwise it holds at x = m3 and at the x in 1..a3 with
       m4 + x = c - a4 (mod a3), one for each of the two residues: at
       most 3 values of x.  A member-line pair whose sum is on a sum line
       is left to that line.
    5. P1 and P2 reduce to four numbers.  For a in {a1, a2} with b the
       other weight of the pair, a divides d - c for some c in
       {0, a1, a2, a3, a4} exactly when a divides one of d, a3 + a4,
       sigma + a3 or sigma + a4: c = a gives d - a = d (mod a), c = b
       gives a + a3 + a4 = a3 + a4 (mod a), c = a4 gives sigma + a3 and
       c = a3 gives sigma + a4.  On a sum line all four are fixed, so
       each pair that meets P4 and P3 costs at most eight remainders.
    6. m3 and m4 carry g: m3 = -a4 (mod a3) and m4 = -a3 (mod a4), so g
       divides both, and every sum line has sigma = 0 (mod g).  When
       g > 1, a single pair {m3, sigma - m3} and a member-line pair each
       have three weights that share g, m3 or m4 with a3 and a4, so they
       are skipped without a test.  On a whole sum line,
       gcd(a1, a3, a4) = gcd(a1, g) and gcd(a2, a3, a4) = gcd(a2, g),
       which is gcd(a1, g) again since g divides sigma: the two tests are
       the one gcd(a1, g) = 1, that is gcd(a1*a2, g) = 1.
    7. No pair meets P4 when a4 > 3*a3: then d - a4 = sigma + a3 < a4,
       and every other d - c lies strictly between a4 and 2*a4.  So the
       loop over a4 stops at 3*a3.

    So each pair meeting the four vertex conditions with
    gcd(a1*a2, g) = 1 is yielded once.  The work is one step per pair
    (a3, a4) and per sum line, plus the tests of step 5 on each pair of a
    whole sum line and, when g = 1, on the single pairs and the member
    line: O(a4_bound**2) plus at most one test per pair meeting P4 and
    P3, where a scan of the triples (a1, a2, a3) is O(a4_bound**3).  At
    bound 40, 1,642 pairs are tested and 99 yielded, of which 95 pass
    the two tests left and go through the walk and the criterion.

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
                if gcd(a1, a2, a3) == 1 and gcd(a1, a2, a4) == 1:
                    w = Weights(a1, a2, a3, a4)
                    if has_only_terminal_isolated_sings(w) and is_quasismooth_general(w):
                        out.append(w)
    out.sort(key=lambda w: (w.degree, w))
    return out
