"""Output checks that do not import `wfano`.

Every check here is derived from the literature or from first principles
and is written independently of the package's own code:

* the published list of 95 weight systems, read with a parser of its own
  (completeness: Iano-Fletcher, "Working with weighted complete
  intersections", 2000);
* Reid's orbifold plurigenus formula against the Hilbert series of the
  hypersurface, and Kawamata's bound on the basket ("Young person's guide
  to canonical singularities", 1987);
* the triple-product form on a tower of weighted blow ups, each defining
  equation of a Gram problem, and an LDL^T pivot-sign test of negative
  definiteness.

All arithmetic is exact (`fractions.Fraction`).
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_TYPE_RE = re.compile(r"1/(\d+)\((\d+),(\d+),(\d+)\)")


def read_published(text: str) -> dict[int, dict]:
    """The records of `families.txt`: gimel -> weights, degree, kcube,
    pencils and rows (locus, count, r, (q1, q2, q3), annotation text)."""
    out: dict[int, dict] = {}
    rec = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "family":
            rec = out.setdefault(int(rest), {"rows": []})
        elif key == "weights":
            rec["weights"] = tuple(int(t) for t in rest.split())
        elif key == "degree":
            rec["degree"] = int(rest)
        elif key == "kcube":
            rec["kcube"] = Fraction(rest)
        elif key == "pencils":
            rec["pencils"] = rest
        elif key in ("invariant", "ell"):
            rec[key] = rest
        elif key == "row":
            locus, count, typ, *ann = rest.split(" ", 3)
            m = _TYPE_RE.fullmatch(typ)
            rec["rows"].append(
                (locus, int(count[:-1]), int(m.group(1)),
                 tuple(int(m.group(i)) for i in (2, 3, 4)), " ".join(ann))
            )
    return out


def published_systems(records: dict[int, dict]) -> list[tuple[int, ...]]:
    """The published weight systems sorted by (degree, weights)."""
    return sorted((r["weights"] for r in records.values()), key=lambda w: (sum(w), w))


def terminal_form(r: int, qs) -> tuple[int, int]:
    """(r, a) with 1/r(q1,q2,q3) = 1/r(1, a, r-a) and a <= r-a, searched
    over the units of Z/r."""
    for u in range(1, r):
        if gcd(u, r) != 1:
            continue
        s = sorted(q * u % r for q in qs)
        if s[0] == 1 and s[1] + s[2] == r:
            return r, min(s[1], s[2])
    raise ValueError(f"1/{r}{tuple(qs)} is not terminal cyclic")


def hilbert_coefficients(weights, n_max: int) -> list[int]:
    """Coefficients of t^0..t^n_max in (1 - t^d) / prod(1 - t^a) over the
    five ambient weights (1, a1, ..., a4), d = a1 + ... + a4."""
    d = sum(weights)
    series = [1] + [0] * n_max
    for a in (1, *weights):
        for k in range(a, n_max + 1):
            series[k] += series[k - a]
    return [series[k] - (series[k - d] if k >= d else 0) for k in range(n_max + 1)]


def reid_plurigenera(weights, points, n_max: int) -> list[Fraction]:
    """h^0(-nK) for n = 0..n_max by Reid's formula

        n(n+1)(2n+1)/12 (-K^3) + (2n+1) - l(n+1),
        l(n) = sum_Q sum_{j=1}^{n-1} bj'(r - bj') / (2r),  bj' = bj mod r,

    where each point Q of type 1/r(1, a, r-a) has b = a^-1 mod r, and
    `points` lists (r, a) once per point."""
    d = sum(weights)
    kcube = Fraction(d, weights[0] * weights[1] * weights[2] * weights[3])
    inverses = [(r, pow(a, -1, r)) for r, a in points]
    out = []
    corr = Fraction(0)  # l(n + 1), grown one term j = n at a time
    for n in range(n_max + 1):
        for r, b in inverses:
            bj = b * n % r
            corr += Fraction(bj * (r - bj), 2 * r)
        out.append(Fraction(n * (n + 1) * (2 * n + 1), 12) * kcube + (2 * n + 1) - corr)
    return out


def basket_is_consistent(weights, points, n_max: int = 30) -> bool:
    """Reid's formula matches the Hilbert series for every n <= n_max, and
    Kawamata's bound sum(r - 1/r) < 24 holds."""
    if sum((Fraction(r) - Fraction(1, r) for r, _ in points), Fraction(0)) >= 24:
        return False
    return reid_plurigenera(weights, points, n_max) == hilbert_coefficients(weights, n_max)


def tower_triple(weights, centers, a, b, c) -> Fraction:
    """A.B.C on a tower in the pullback basis H, E_1..E_n: the cube of H is
    -K^3 = d / (a1 a2 a3 a4), each E_i^3 = r^2 / (a (r - a)) for a center
    1/r(1, a, r-a), and all mixed products vanish."""
    d = sum(weights)
    total = a[0] * b[0] * c[0] * Fraction(d, weights[0] * weights[1] * weights[2] * weights[3])
    for i, (r, q) in enumerate(centers, start=1):
        total += a[i] * b[i] * c[i] * Fraction(r * r, q * (r - q))
    return total


def gram_satisfies(gram, decompositions, classes, surface, weights, centers) -> bool:
    """Every defining equation sum_ij m_si m_tj G_ij = A_s.A_t.D holds."""
    n = len(gram)
    if any(len(row) != n or gram[i][j] != gram[j][i]
           for i, row in enumerate(gram) for j in range(n)):
        return False
    for s, (cls_s, m_s) in enumerate(zip(classes, decompositions)):
        for cls_t, m_t in zip(classes[s:], decompositions[s:]):
            lhs = sum(m_s[i] * m_t[j] * gram[i][j] for i in range(n) for j in range(n))
            if lhs != tower_triple(weights, centers, cls_s, cls_t, surface):
                return False
    return True


def ldl_negative_definite(matrix) -> bool:
    """Negative definiteness of a symmetric rational matrix: every pivot of
    its LDL^T factorisation, taken without row exchanges, is negative."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    for k in range(n):
        pivot = m[k][k]
        if pivot >= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return True
