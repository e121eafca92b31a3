from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, strategies as st

from wfano.blowup import (
    DivisorClass,
    GramProblem,
    Restriction,
    Tower,
    anticanonical_class,
    is_negative_definite,
    neg_k_cube,
    solve_gram,
    triple,
)
from wfano.core import InputError, QuotientSingularityType, Weights, anticanonical_cube
from wfano.towers import FIXTURES, evaluate, load_fixture

F = Fraction


def chain(base, *types):
    return Tower(Weights(*base), tuple(QuotientSingularityType(r, a) for r, a in types))


def combine(s, a, b):
    """The class s*a + b, coefficient by coefficient."""
    es = zip(a.e_coeffs, b.e_coeffs, strict=True)
    return DivisorClass(s * a.k_coeff + b.k_coeff, tuple(s * x + y for x, y in es))


# ---------------------------------------------------------------------------
# fixtures: every shipped tower file reproduces its frozen numbers


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda f: f.name)
def test_fixture_values(fx):
    ev = evaluate(load_fixture(fx))
    assert ev.neg_k_cube == fx.neg_k_cube
    if fx.gram is not None:
        assert ev.gram_matrix == fx.gram
        assert ev.negative_definite is True
    else:
        assert ev.gram_matrix is None


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda f: f.name)
def test_neg_k_cube_is_anticanonical_triple(fx):
    tower = load_fixture(fx).tower
    k = anticanonical_class(tower)
    assert neg_k_cube(tower) == triple(tower, k, k, k)


def test_known_chain_values():
    assert neg_k_cube(chain((1, 2, 3, 5), (3, 1), (2, 1))) == F(-3, 10)
    assert neg_k_cube(chain((1, 3, 4, 7), (4, 1), (3, 1))) == F(-1, 14)
    assert neg_k_cube(chain((1, 2, 3, 5))) == F(11, 30)


# ---------------------------------------------------------------------------
# structural validation


def test_dimension_mismatch():
    tower = chain((1, 2, 3, 5), (2, 1))
    with pytest.raises(ValueError, match="0 exceptional coefficients, tower has 1 centers"):
        triple(tower, DivisorClass(1, ()), DivisorClass(1, (0,)), DivisorClass(1, (0,)))


# ---------------------------------------------------------------------------
# randomized exact properties of the triple form

TYPE_POOL = [(2, 1), (3, 1), (5, 2), (7, 3)]


@st.composite
def towers(draw):
    types = draw(st.lists(st.sampled_from(TYPE_POOL), max_size=3))
    return chain((1, 2, 3, 5), *types)


def classes_for(tower):
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    return st.tuples(coeff, *([coeff] * len(tower.centers))).map(
        lambda cs: DivisorClass(cs[0], cs[1:])
    )


@st.composite
def tower_with_classes(draw, k=3):
    tower = draw(towers())
    cls = [draw(classes_for(tower)) for _ in range(k)]
    return tower, cls


@given(tower_with_classes(k=4), st.fractions(max_denominator=4))
def test_triple_is_trilinear(tc, scalar):
    tower, (a, b, c, d) = tc
    left = triple(tower, combine(scalar, a, b), c, d)
    right = scalar * triple(tower, a, c, d) + triple(tower, b, c, d)
    assert left == right


@given(tower_with_classes(k=3))
def test_triple_is_symmetric(tc):
    tower, (a, b, c) = tc
    v = triple(tower, a, b, c)
    assert v == triple(tower, b, a, c)
    assert v == triple(tower, c, b, a)
    assert v == triple(tower, a, c, b)


@given(towers())
def test_neg_k_cube_agrees_with_triple(tower):
    k = anticanonical_class(tower)
    assert neg_k_cube(tower) == triple(tower, k, k, k)


# ---------------------------------------------------------------------------
# Gram solving


def gram_13():
    tower = chain((1, 2, 3, 5), (5, 2), (2, 1))
    s = DivisorClass(1, (F(-1, 5), F(-1, 2)))
    t = DivisorClass(0, (1, F(-1, 2)))
    return tower, s, t


def test_solve_gram_known_matrix():
    tower, s, t = gram_13()
    problem = GramProblem(
        tower, s, ("C", "L"),
        (Restriction(s, (F(1), F(1))), Restriction(t, (F(0), F(1)))),
    )
    g = solve_gram(problem)
    assert g == ((F(-5, 6), F(1)), (F(1), F(-4, 3)))
    assert is_negative_definite(g)


def test_solve_gram_underdetermined():
    tower, s, t = gram_13()
    problem = GramProblem(tower, s, ("C", "L"), (Restriction(s, (F(1), F(1))),))
    with pytest.raises(InputError) as e:
        solve_gram(problem)
    assert str(e.value) == "2 of 3 Gram entries stay free"


def test_solve_gram_zero_column():
    # curve Z appears in no decomposition: its three Gram entries have all-zero
    # columns, which the elimination skips before dividing by the pivots of
    # the later columns
    tower, s, t = gram_13()
    problem = GramProblem(
        tower, s, ("Z", "C", "L"),
        (Restriction(s, (F(0), F(2), F(3))), Restriction(t, (F(0), F(1), F(2)))),
    )
    with pytest.raises(InputError) as e:
        solve_gram(problem)
    assert str(e.value) == "3 of 6 Gram entries stay free"


def test_solve_gram_rank_deficient_and_inconsistent():
    # one direction only, so rank 1 of 3; S.S.D != 0 then makes the scaled
    # copy contradict it, and inconsistency is reported first
    tower, s, t = gram_13()
    assert triple(tower, s, s, s) != 0
    problem = GramProblem(
        tower, s, ("C", "L"),
        (Restriction(s, (F(1), F(1))), Restriction(s, (F(2), F(2)))),
    )
    with pytest.raises(InputError) as e:
        solve_gram(problem)
    assert str(e.value) == "decompositions contradict the triple products"


def test_solve_gram_inconsistent():
    tower, s, t = gram_13()
    # the same divisor decomposing two different ways forces 0 = nonzero
    problem = GramProblem(
        tower, s, ("C", "L"),
        (
            Restriction(s, (F(1), F(1))),
            Restriction(s, (F(2), F(2))),
            Restriction(t, (F(0), F(1))),
        ),
    )
    with pytest.raises(InputError) as e:
        solve_gram(problem)
    assert str(e.value) == "decompositions contradict the triple products"


def test_solve_gram_more_restrictions_than_curves():
    # S + T = C + 2L is implied by the other two, so three restrictions on
    # two curves still give the known matrix
    tower, s, t = gram_13()
    problem = GramProblem(
        tower, s, ("C", "L"),
        (
            Restriction(s, (F(1), F(1))),
            Restriction(t, (F(0), F(1))),
            Restriction(combine(1, s, t), (F(1), F(2))),
        ),
    )
    assert solve_gram(problem) == ((F(-5, 6), F(1)), (F(1), F(-4, 3)))


def test_gram_problem_dimension_checks():
    tower, s, t = gram_13()
    with pytest.raises(ValueError, match="decomposition has 2 coefficients for 1 curves"):
        GramProblem(tower, s, ("C",), (Restriction(s, (F(1), F(1))),))
    with pytest.raises(ValueError, match="0 exceptional coefficients, tower has 2 centers"):
        GramProblem(tower, DivisorClass(1, ()), ("C",), ())


def test_negative_definite_cases():
    assert is_negative_definite(())  # the empty matrix, vacuously
    assert is_negative_definite(((F(-1),),))
    assert not is_negative_definite(((F(1),),))
    assert is_negative_definite(((F(-2), F(1)), (F(1), F(-2))))
    assert not is_negative_definite(((F(-1), F(2)), (F(2), F(-1))))
    # negative SEMI-definite must be rejected too
    assert not is_negative_definite(((F(-1), F(1)), (F(1), F(-1))))
    with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ"):
        is_negative_definite(((F(-1), F(2)), (F(1), F(-1))))
    with pytest.raises(ValueError, match="not square"):
        is_negative_definite(((F(-1), F(0)),))


def test_negative_definite_reads_int_entries_as_given():
    # int and Fraction both carry numerator and denominator
    cases = [((-2, 1), (1, -2)), ((-1, 2), (2, -1)), ((-1, 1), (1, -1)), ((0, -1), (-1, 0)),
             ((-3,),), ((-2, 1, 0), (1, -2, 1), (0, 1, -2))]
    verdicts = [is_negative_definite(m) for m in cases]
    assert verdicts == [True, False, False, False, True, True]
    assert verdicts == [is_negative_definite([[F(x) for x in row] for row in m]) for m in cases]
    with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ"):
        is_negative_definite(((-1, 2), (1, -1)))


# ---------------------------------------------------------------------------
# oracles for the elimination: Leibniz determinants and the Gram equations


def leibniz_det(m):
    """Determinant as the signed sum over permutations."""
    total = F(0)
    for perm in permutations(range(len(m))):
        inversions = sum(
            1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
        )
        term = F(-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def sylvester_negative_definite(m):
    """(-1)^k D_k > 0 for every leading principal minor D_k."""
    return all(
        (-1) ** k * leibniz_det([row[:k] for row in m[:k]]) > 0
        for k in range(1, len(m) + 1)
    )


small = st.builds(F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3))


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        # -B^T B with B of random rank: negative semidefinite, often singular
        k = draw(st.integers(min_value=0, max_value=n))
        b = [[draw(small) for _ in range(n)] for _ in range(k)]
        return [[-sum((b[r][i] * b[r][j] for r in range(k)), F(0)) for j in range(n)]
                for i in range(n)]
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(small)
    return m


def tridiagonal(n):
    """-2 on the diagonal and 1 beside it: D_k = (-1)^k (k+1)."""
    return [[F(-2) if i == j else F(abs(i - j) == 1) for j in range(n)] for i in range(n)]


@given(symmetric_matrices())
@example(tridiagonal(3))  # a pivot that skipped Bareiss's division would be D_3 D_1 > 0
@example(tridiagonal(4))
@example([[F(0), F(-1)], [F(-1), F(0)]])  # indefinite; after the row swap both pivots look right
def test_negative_definite_agrees_with_leading_minors(m):
    assert is_negative_definite(m) == sylvester_negative_definite(m)


@st.composite
def invertible_restrictions(draw):
    tower, surface, _ = gram_13()
    n = draw(st.integers(min_value=2, max_value=3))
    coeffs = [[draw(small) for _ in range(n)] for _ in range(n)]
    assume(leibniz_det(coeffs) != 0)
    divisors = [DivisorClass(draw(small), (draw(small), draw(small))) for _ in range(n)]
    return tower, surface, divisors, coeffs


@given(invertible_restrictions())
def test_solve_gram_satisfies_its_equations(problem_data):
    tower, surface, divisors, coeffs = problem_data
    n = len(coeffs)
    problem = GramProblem(
        tower, surface, tuple(f"C{i}" for i in range(n)),
        tuple(Restriction(d, tuple(row)) for d, row in zip(divisors, coeffs)),
    )
    g = solve_gram(problem)
    assert all(isinstance(x, Fraction) for row in g for x in row)
    for s in range(n):
        for t in range(s, n):
            lhs = sum(
                (coeffs[s][i] * coeffs[t][j] * g[i][j] for i in range(n) for j in range(n)),
                F(0),
            )
            assert lhs == triple(tower, divisors[s], divisors[t], surface)


def definitional_triple(tower, a, b, c):
    """kA*kB*kC*(-K^3) + sum_i eA_i*eB_i*eC_i*E_i^3 in Fraction arithmetic."""
    total = a.k_coeff * b.k_coeff * c.k_coeff * anticanonical_cube(tower.base)
    for i, center in enumerate(tower.centers):
        r, q = center.r, center.a
        total += a.e_coeffs[i] * b.e_coeffs[i] * c.e_coeffs[i] * F(r * r, q * (r - q))
    return total


@given(tower_with_classes(k=3))
def test_triple_is_the_definitional_sum(tc):
    tower, (a, b, c) = tc
    assert triple(tower, a, b, c) == definitional_triple(tower, a, b, c)


def kronecker_gram(problem):
    """Oracle: the Gram problem as one linear system in the n(n+1)/2
    entries G_ij (i <= j), one equation per pair s <= t of restrictions,
    sum_ij m_si m_tj G_ij = A_s.A_t.D, eliminated over Fraction."""
    n, rs = len(problem.curves), problem.restrictions
    unknowns = [(i, j) for i in range(n) for j in range(i, n)]
    m = len(unknowns)
    rows = []
    for s in range(len(rs)):
        for t in range(s, len(rs)):
            row = [F(0)] * m
            for i in range(n):
                for j in range(n):
                    u = unknowns.index((min(i, j), max(i, j)))
                    row[u] += rs[s].coefficients[i] * rs[t].coefficients[j]
            rhs = definitional_triple(problem.tower, rs[s].divisor, rs[t].divisor, problem.surface)
            rows.append(row + [rhs])
    rank = 0
    for col in range(m):
        p = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        top = [x / rows[rank][col] for x in rows[rank]]
        rows[rank] = top
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    if any(row[m] for row in rows[rank:]):
        raise InputError("decompositions contradict the triple products")
    if rank < m:
        raise InputError(f"{m - rank} of {m} Gram entries stay free")
    gram = [[F(0)] * n for _ in range(n)]
    for k, (i, j) in enumerate(unknowns):
        gram[i][j] = gram[j][i] = rows[k][m]
    return tuple(tuple(row) for row in gram)


@st.composite
def gram_problems(draw):
    """k = 0..4 restrictions on n = 1..3 curves: new classes and rows, a
    class repeated with a new row, zero rows, and scaled copies and sums
    of earlier restrictions (consistent, so k > n can still solve)."""
    tower = draw(towers())
    classes = classes_for(tower)
    n = draw(st.integers(min_value=1, max_value=3))
    rows = st.lists(small, min_size=n, max_size=n).map(tuple)
    zero = DivisorClass(0, (0,) * len(tower.centers))
    nothing = Restriction(zero, tuple([F(0)] * n))
    rs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kinds = ["new", "repeat", "zero", "scaled", "sum"] if rs else ["new", "zero"]
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            rs.append(Restriction(draw(classes), draw(rows)))
        elif kind == "repeat":
            rs.append(Restriction(draw(st.sampled_from(rs)).divisor, draw(rows)))
        elif kind == "zero":
            divisor = draw(st.sampled_from([zero, draw(classes)]))
            rs.append(Restriction(divisor, nothing.coefficients))
        else:
            c, x = draw(small), draw(st.sampled_from(rs))
            y = draw(st.sampled_from(rs)) if kind == "sum" else nothing
            coeffs = tuple(c * p + q for p, q in zip(x.coefficients, y.coefficients))
            rs.append(Restriction(combine(c, x.divisor, y.divisor), coeffs))
    curves = tuple(f"C{i}" for i in range(n))
    return GramProblem(tower, draw(classes), curves, tuple(rs))


def outcome(solve, problem):
    try:
        return solve(problem)
    except InputError as e:  # the message names the failure and its count
        return str(e)


@given(gram_problems())
@example(GramProblem(*gram_13()[:2], ("C", "L")))  # no restrictions at all
def test_solve_gram_agrees_with_kronecker_system(problem):
    assert outcome(solve_gram, problem) == outcome(kronecker_gram, problem)
