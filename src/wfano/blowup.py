"""Intersection theory on towers of weighted blow ups.

A `Tower` records a chain X_n -> ... -> X_1 -> X of blow ups, each centered
at a terminal quotient point 1/r(1, a, r-a) and performed with the weights
(1, a, r-a).  Divisor classes live in the basis

    H, E_1, ..., E_n

where H is the total pullback of the base anticanonical class and E_i is
the total pullback of the i-th exceptional divisor.  In this basis the
triple product is diagonal: pullback classes meet later exceptionals
trivially by the projection formula, so

    A.B.C = kA*kB*kC * (-K^3 of the base) + sum_i  eA_i*eB_i*eC_i * E_i^3,

with E_i^3 = r^2/(a(r-a)).  With this form w over one common denominator
and each class over its own, a triple product is an integer dot product.
So every number here depends only on the base and on each center's type,
and a `Tower` is just those: its base weights and its center types.

On a surface D in the tower, a Gram problem asks for the intersection
matrix G of its base curves given decompositions A_s.D = sum m_si C_i:
with M = (m_si) and R_st = A_s.A_t.D they say M G M^T = R, a congruence
solved exactly by two eliminations with M.

One elimination serves both the Gram solver and the definiteness test:
fraction-free integer elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
Each row is first cleared of its denominators; every later update divides
exactly by the previous pivot, so no rational arithmetic and no gcd runs
inside the loop.
"""
from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .core import InputError, QuotientSingularityType, Weights, anticanonical_cube


class Tower(NamedTuple):
    """Blow ups over `base`, the i-th at a point of type `centers[i]`."""

    base: Weights
    centers: tuple[QuotientSingularityType, ...]


class DivisorClass(NamedTuple):
    """A class k*H + sum_i e_i*E_i in a tower's pullback basis; coefficients int or Fraction."""

    k_coeff: Fraction | int
    e_coeffs: tuple[Fraction | int, ...]


def anticanonical_class(tower: Tower) -> DivisorClass:
    """-K on top of the tower: H - sum (1/r_i) E_i."""
    return DivisorClass(Fraction(1), tuple(-Fraction(1, t.r) for t in tower.centers))


def _check_dim(tower: Tower, dc: DivisorClass):
    if len(dc.e_coeffs) != len(tower.centers):
        raise ValueError(
            f"class has {len(dc.e_coeffs)} exceptional coefficients, "
            f"tower has {len(tower.centers)} centers"
        )


def _over_lcm(values: list[Fraction | int]) -> tuple[int, list[int]]:
    # the values as integer numerators over the lcm of their denominators
    # (an int is its own numerator over 1)
    den = lcm(*[x.denominator for x in values])
    return den, [x.numerator * (den // x.denominator) for x in values]


def _form(tower: Tower) -> tuple[int, list[int]]:
    # the diagonal form (-K^3 of the base, E_1^3, ..., E_n^3) as integers
    # over one common denominator, with -K^3 = d/(a1 a2 a3 a4)
    b, types = tower.base, tower.centers
    dens = [b.a1 * b.a2 * b.a3 * b.a4] + [t.a * (t.r - t.a) for t in types]
    den = lcm(*dens)
    return den, [x * (den // y) for x, y in zip([b.degree] + [t.r * t.r for t in types], dens)]


def triple(tower: Tower, a: DivisorClass, b: DivisorClass, c: DivisorClass) -> Fraction:
    """Exact triple product A.B.C on top of the tower."""
    for dc in (a, b, c):
        _check_dim(tower, dc)
    den, w = _form(tower)
    for dc in (a, b, c):
        dc_den, xs = _over_lcm([dc.k_coeff, *dc.e_coeffs])
        den *= dc_den
        w = [x * y for x, y in zip(w, xs)]
    return Fraction(sum(w), den)


def neg_k_cube(tower: Tower) -> Fraction:
    """-K^3 on top of the tower.

    Each blow up of a 1/r(1, a, r-a) point drops the anticanonical cube by
    1/(r*a*(r-a)); equivalently this is triple(-K, -K, -K).
    """
    return anticanonical_cube(tower.base) - sum(
        (t.discrepancy_cube_drop for t in tower.centers), Fraction(0)
    )


class Restriction(NamedTuple):
    """A_s restricted to the surface: A_s . D = sum_i coefficients[i] * C_i."""

    divisor: DivisorClass
    coefficients: tuple[Fraction, ...]


class _GramFields(NamedTuple):
    tower: Tower
    surface: DivisorClass
    curves: tuple[str, ...]
    restrictions: tuple[Restriction, ...] = ()


class GramProblem(_GramFields):
    """Determine the pairwise intersections of named base curves on a
    surface D from decompositions of restricted divisor classes."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` builds with it: both check

    def __new__(cls, tower: Tower, surface: DivisorClass, curves: tuple[str, ...],
                restrictions: tuple[Restriction, ...] = ()):
        _check_dim(tower, surface)
        for r in restrictions:
            _check_dim(tower, r.divisor)
            if len(r.coefficients) != len(curves):
                raise ValueError(
                    f"decomposition has {len(r.coefficients)} coefficients "
                    f"for {len(curves)} curves"
                )
        return tuple.__new__(cls, (tower, surface, curves, restrictions))


def _bareiss(mat: list[list[int]], n_cols: int) -> Iterator[tuple[int, bool]]:
    # Fraction-free elimination (Bareiss 1968) of an integer matrix, in
    # place, on the first n_cols columns.  Every update is divided exactly
    # by the previous pivot, so the entries stay integers, and the pivot of
    # step k is the k x k minor on the pivot rows and columns so far.
    # Yields (pivot, moved up by a row swap) as soon as it is found, so a
    # caller may stop early; the k-th pivot ends up in row k.
    row, prev = 0, 1
    for col in range(n_cols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        yield mat[pivot][col], pivot != row
        mat[row], mat[pivot] = mat[pivot], mat[row]
        top = mat[row]
        p = top[col]
        for r in range(row + 1, len(mat)):
            f = mat[r][col]
            mat[r] = [(p * x - f * y) // prev for x, y in zip(mat[r], top)]
        prev = p
        row += 1


def _back_substitute(mat: list[list[int]], n: int, det: int) -> list[list[int]]:
    # det * X for the eliminated system [A | B] with A X = B and A of full
    # column rank n, so that row k holds the k-th pivot in column k.  By
    # Cramer's rule det * X is integral, where det is the last pivot, the
    # determinant of the pivot rows; every division here is exact.
    x: list[list[int]] = [[]] * n
    for k in reversed(range(n)):
        row = mat[k]
        x[k] = [
            (det * row[c] - sum(row[j] * x[j][c - n] for j in range(k + 1, n))) // row[k]
            for c in range(n, len(row))
        ]
    return x


def solve_gram(problem: GramProblem) -> tuple[tuple[Fraction, ...], ...]:
    """Solve for the full symmetric Gram matrix of the problem's curves.

    With M = (m_si), k x n, and R_st = A_s.A_t.D the restrictions say
    M G M^T = R.  Scaling row s of L*M (L the lcm of the denominators of
    M) by the denominator of A_s gives an integer N, and the right-hand
    sides are integer dot products with the surface's row of the form,
    D_i*w_i: N G' N^T = P with G' an integer multiple of G.  One Bareiss
    elimination of [N | P] gives the rank r of N and, by back substitution,
    Y = G' N^T; a second one solves N G' = Y^T.

    On symmetric matrices G -> N G N^T has an image of dimension r(r+1)/2,
    the rank of the linear system in the n(n+1)/2 entries G_ij (i <= j)
    with one equation per pair s <= t.  R is symmetric, so it lies in the
    image iff its columns lie in that of N: iff the rows past rank r of the
    eliminated [N | P] are zero on the right.  So inconsistency is tested
    first, then n(n+1)/2 - r(r+1)/2 entries stay free.  Either one raises
    an InputError that says which, and how many entries stay free.  When
    r = n the second system is consistent and G comes out symmetric.
    """
    n, rs = len(problem.curves), problem.restrictions
    den, dw = _form(problem.tower)
    d_den, d = _over_lcm([problem.surface.k_coeff, *problem.surface.e_coeffs])
    dw = [x * y for x, y in zip(dw, d)]
    scale = lcm(*(m.denominator for r in rs for m in r.coefficients))
    classes = [_over_lcm([r.divisor.k_coeff, *r.divisor.e_coeffs]) for r in rs]
    ns = [
        [a_den * m.numerator * (scale // m.denominator) for m in r.coefficients]
        for (a_den, _), r in zip(classes, rs)
    ]
    mat = [
        row + [scale * scale * sum(x * y * z for x, y, z in zip(a, b, dw)) for _, b in classes]
        for row, (_, a) in zip(ns, classes)
    ]
    pivots = [p for p, _ in _bareiss(mat, n)]
    rank, unknowns = len(pivots), n * (n + 1) // 2
    if any(any(row[n:]) for row in mat[rank:]):
        raise InputError("decompositions contradict the triple products")
    if rank < n:
        raise InputError(
            f"{unknowns - rank * (rank + 1) // 2} of {unknowns} Gram entries stay free"
        )
    det = pivots[-1] if pivots else 1
    y = _back_substitute(mat, n, det)
    mat = [row + [y[i][s] for i in range(n)] for s, row in enumerate(ns)]
    list(_bareiss(mat, n))  # the same pivots as before, so det stays the last one
    den *= det * det * d_den
    gram: list[tuple[Fraction, ...]] = []
    for i, row in enumerate(_back_substitute(mat, n, det)):  # det^2 * G', from its upper triangle
        gram.append(tuple([gram[j][i] for j in range(i)] + [Fraction(v, den) for v in row[i:]]))
    return tuple(gram)


def is_negative_definite(matrix) -> bool:
    """Exact test by Sylvester's criterion: a symmetric matrix is negative
    definite iff its leading principal minors D_k alternate in sign,
    (-1)^k D_k > 0 for k = 1..n.  Fraction-free elimination (Bareiss 1968)
    of the matrix, with each row cleared of its denominators, yields D_k
    (up to a positive factor) as its k-th pivot while it needs no row swap;
    a swap at step k means D_k = 0.  So no determinant is computed on its
    own.  Entries are int or Fraction, read as given."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
    rank = 0
    for minor, swapped in _bareiss([_over_lcm(row)[1] for row in matrix], n):
        if swapped or (minor if rank % 2 else -minor) <= 0:
            return False
        rank += 1
    return rank == n
