import importlib.util
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm
from pathlib import Path

import pytest

from wfano import singularities
from wfano.classifier import family, load_families, parse_table, serialize_table
from wfano.core import NonTerminalError, QuotientSingularityType, Weights, normalize_singularity
from wfano.enumerator import has_only_terminal_isolated_sings, is_quasismooth
from wfano.singularities import (
    basket,
    quotient_points,
    singular_points,
    stratum_points,
    type_counts,
)


def vertex_types(w):
    return {locus: t for _, t, locus in singular_points(w) if "P" not in locus[1:]}


def test_coordinate_point_types():
    assert vertex_types(Weights(1, 2, 3, 5)) == {
        "P2": QuotientSingularityType(2, 1),
        "P3": QuotientSingularityType(3, 1),
        "P4": QuotientSingularityType(5, 2),
    }


def test_no_eliminator_at_bad_vertex():
    # degree 18, weight-5 vertex: no other coordinate can pair with a
    # power of x3, so the general member is forced through a worse point
    message = r"no monomial x_3\^k\*x_j of degree 18 for P\(1,2,4,5,7\)"
    with pytest.raises(NonTerminalError, match=message):
        vertex_types(Weights(2, 4, 5, 7))


def _normalized_or_error(r, qs):
    try:
        return normalize_singularity(r, *qs)
    except ValueError as exc:
        return type(exc)


def test_every_eliminator_gives_the_same_point():
    # the walk eliminates only the first x_j with a monomial x_i^k x_j of
    # degree d.  Every eliminator has weight = d mod a_i, so any of them
    # leaves the same local weights mod a_i; check that on every singular
    # vertex of every member with a4 <= 40
    vertices = 0
    for a4 in range(1, 41):
        for a3 in range(1, a4 + 1):
            for a2 in range(1, a3 + 1):
                for a1 in range(1, a2 + 1):
                    ws = (1, a1, a2, a3, a4)
                    d = a1 + a2 + a3 + a4
                    for i in range(1, 5):
                        r = ws[i]
                        if r < 2 or d % r == 0:
                            continue
                        eliminators = [
                            j for j in range(5)
                            if j != i and (d - ws[j]) % r == 0
                        ]
                        if len(eliminators) < 2:
                            continue
                        vertices += 1
                        outcomes = {
                            _normalized_or_error(r, [ws[m] for m in range(5) if m not in (i, j)])
                            for j in eliminators
                        }
                        assert len(outcomes) == 1, (ws, i, outcomes)
    assert vertices > 20000


def test_stratum_points_example():
    # family 7 = P(1,1,2,2,3), degree 8: four 1/2 points on the (2,2) edge
    assert stratum_points((1, 1, 2, 2, 3), 8, 2, 3) == 4
    assert (4, QuotientSingularityType(2, 1), "P2P3") in singular_points(Weights(1, 2, 2, 3))


def test_stratum_empty_restriction():
    # no monomial of degree 10 in two weight-3 variables
    message = r"stratum P2P3 lies inside the general member of P\(1,1,3,3,3\)"
    with pytest.raises(NonTerminalError, match=message):
        stratum_points((1, 1, 3, 3, 3), 10, 2, 3)


def test_stratum_points_closed_form_matches_the_loop():
    # the count of exponent pairs m*a + n*b = d, m, n >= 0, by trying every
    # m, against the closed form; no pair at all is a NonTerminalError
    for a in range(1, 25):
        for b in range(1, 25):
            for d in range(max(a, b), 120):
                pairs = sum(1 for m in range(d // a + 1) if (d - m * a) % b == 0)
                try:
                    actual = stratum_points((a, b), d, 0, 1)
                except NonTerminalError:
                    actual = None
                assert actual == (pairs - 1 if pairs else None), (a, b, d)


def residual_count(ws, d, i, j):
    """The stratum count as first computed: the restriction of the general
    polynomial factors as x_i^ei * x_j^ej * g, and the degree of g over
    lcm(a_i, a_j) counts the points.  None when no monomial of degree d
    lives on the stratum."""
    exps = [
        (m, (d - m * ws[i]) // ws[j])
        for m in range(d // ws[i] + 1)
        if (d - m * ws[i]) % ws[j] == 0
    ]
    if not exps:
        return None
    ei = min(m for m, _ in exps)
    ej = min(n for _, n in exps)
    residual = d - ei * ws[i] - ej * ws[j]
    assert residual % lcm(ws[i], ws[j]) == 0, (ws, i, j)
    return residual // lcm(ws[i], ws[j])


def test_stratum_points_is_the_residual_count():
    # every stratum with a common factor on every member with a4 <= 30
    strata = 0
    for a4 in range(1, 31):
        for a3 in range(1, a4 + 1):
            for a2 in range(1, a3 + 1):
                for a1 in range(1, a2 + 1):
                    ws, d = (1, a1, a2, a3, a4), a1 + a2 + a3 + a4
                    for i, j in combinations(range(1, 5), 2):
                        if gcd(ws[i], ws[j]) < 2:
                            continue
                        strata += 1
                        expected = residual_count(ws, d, i, j)
                        try:
                            actual = stratum_points(ws, d, i, j)
                        except NonTerminalError:
                            actual = None
                        assert actual == expected, (ws, i, j)
    assert strata == 98736


def test_singular_points_walk_vertices_then_strata():
    # family 18 = P(1,2,2,3,5), degree 12: the 1/5 vertex, then six 1/2
    # points on the (2,2) edge; the other vertices are off the member
    assert list(singular_points(Weights(2, 2, 3, 5))) == [
        (1, QuotientSingularityType(5, 2), "P4"),
        (6, QuotientSingularityType(2, 1), "P1P2"),
    ]


@pytest.fixture
def walks(monkeypatch):
    """The ambient weights of each run of the walk, from a cold memo."""
    seen = []

    def counting(ws, d):
        seen.append(ws)
        return quotient_points(ws, d)

    monkeypatch.setattr(singularities, "quotient_points", counting)
    singular_points.cache_clear()
    yield seen
    singular_points.cache_clear()


def test_singular_points_is_memoized(walks):
    w = Weights(1, 2, 3, 5)
    points = singular_points(w)
    assert isinstance(points, tuple)
    assert singular_points(w) is points
    # the predicate and the basket read the same walk
    assert has_only_terminal_isolated_sings(w)
    assert {(e.count, e.sing_type, e.locus) for e in basket(w)} == {p for p in points if p[0]}
    assert walks == [w.ambient]
    singular_points.cache_clear()
    assert singular_points(w) == points
    assert walks == [w.ambient, w.ambient]


def test_a_rejected_system_raises_on_every_call(walks):
    w = Weights(3, 4, 4, 5)
    for _ in range(3):
        with pytest.raises(NonTerminalError, match=r"1/5\(3,4,4\)"):
            singular_points(w)
    assert walks == [w.ambient] * 3
    assert singular_points.cache_info().currsize == 0


def test_the_walk_accepts_exactly_the_95_below_33():
    # the memo keeps only what the walk accepts, and with a4 <= 33 that is
    # the 95 families: quasismoothness rejects nothing the walk accepts
    singular_points.cache_clear()
    accepted = set()
    for ws in combinations_with_replacement(range(1, 34), 4):
        try:
            singular_points(Weights(*ws))
        except NonTerminalError:
            continue
        accepted.add(ws)
    assert singular_points.cache_info().currsize == 95
    assert accepted == {tuple(rec.weights) for rec in load_families()}


def test_basket_order():
    # family 9 = P(1,1,2,3,3), degree 9: the walk yields the 1/2 vertex
    # before the three 1/3 points on the (3,3) edge, and the basket puts
    # the higher index first
    w = family(9).weights
    assert w == Weights(1, 2, 3, 3)
    t2, t3 = QuotientSingularityType(2, 1), QuotientSingularityType(3, 1)
    assert list(singular_points(w)) == [(1, t2, "P2"), (3, t3, "P3P4")]
    assert [(e.count, e.sing_type, e.locus) for e in basket(w)] == [
        (3, t3, "P3P4"),
        (1, t2, "P2"),
    ]
    assert type_counts(basket(w)) == {t3: 3, t2: 1}


@pytest.mark.parametrize("gimel", [5, 13, 18, 60, 91, 95])
def test_basket_matches_dataset(gimel):
    rec = family(gimel)
    assert type_counts(basket(rec.weights)) == type_counts(rec.rows)


def test_basket_rows_are_dataset_rows():
    # a computed row is valid dataset text, and reads back as itself
    for rec in load_families():
        rows = basket(rec.weights).entries
        (back,) = parse_table(serialize_table([rec._replace(rows=rows)]))
        assert back.rows == rows, rec.gimel


def _bench_oracles():
    # read in place: `bench/oracles.py` imports no `wfano`, so it checks a
    # basket without the code under test
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_basket_meets_reids_plurigenus_formula():
    # criterion 3 without the walk: Reid's formula, fed the basket's points,
    # gives the Hilbert series of the weights, and fails once a point is dropped
    oracles = _bench_oracles()
    consistent = dropped = 0
    for rec in load_families():
        points = [tuple(row.sing_type) for row in basket(rec.weights) for _ in range(row.count)]
        assert oracles.basket_is_consistent(rec.weights, points), rec.gimel
        consistent += 1
        if points:
            assert not oracles.basket_is_consistent(rec.weights, points[1:]), rec.gimel
            dropped += 1
    assert (consistent, dropped) == (95, 93)


def test_smooth_families_have_empty_basket():
    for gimel in (1, 3):
        rec = family(gimel)
        assert basket(rec.weights).entries == ()


def test_family_26_locus_label():
    # the dataset records these two points on the P3P4 edge, but the
    # weights (1,1,3,5,6) only allow them on the (3,6) edge, i.e. P2P4;
    # counts and types agree, so only the printed label is off
    rec = family(26)
    (row,) = [r for r in rec.rows if r.count == 2]
    assert row.locus == "P3P4"
    (entry,) = [e for e in basket(rec.weights) if e.count == 2]
    assert entry.locus == "P2P4"
    assert entry.sing_type == row.sing_type


def test_every_dataset_locus_else_matches():
    # apart from family 26, even the printed loci agree with recomputation
    for rec in load_families():
        if rec.gimel == 26:
            continue
        computed = {(e.locus, e.sing_type, e.count) for e in basket(rec.weights)}
        recorded = {(r.locus, r.sing_type, r.count) for r in rec.rows}
        assert computed == recorded, rec.gimel


def same_up_to_unit(r, qs, target):
    """Is 1/r(qs) the same quotient as 1/r(target), up to a unit of Z/r?"""
    want = sorted(q % r for q in target)
    return any(sorted(q * u % r for q in qs) == want for u in range(1, r) if gcd(u, r) == 1)


def test_k3_elephants():
    # The general elephant S = {x = 0} of a family is S_d in P(a1,a2,a3,a4),
    # one of Reid's 95 K3 hypersurfaces (Iano-Fletcher, "Working with
    # weighted complete intersections", 2000).  Run on its own, the walk
    # must find one A_{r-1} = 1/r(a, r-a) point for each threefold point
    # 1/r(1, a, r-a), with the same counts, on the same loci (shifted by
    # one, as x0 is gone).  The exceptional curves and the hyperplane class
    # span a sublattice of the Picard lattice, of rank at most 20, so
    # sum count*(r-1) <= 19.
    ranks = {}
    for rec in load_families():
        w = rec.weights
        ws, d = tuple(w), w.degree
        assert is_quasismooth(ws, d), rec.gimel
        surface = list(quotient_points(ws, d))
        threefold = list(singular_points(w))
        shifted = [
            (c, t.r, "".join(f"P{int(k) - 1}" for k in locus.split("P")[1:]))
            for c, t, locus in threefold
        ]
        assert [(c, r, locus) for c, r, _, locus in surface] == shifted, rec.gimel
        for (_, r, qs, _), (_, t, _) in zip(surface, threefold):
            assert same_up_to_unit(r, qs, (t.a, r - t.a)), (rec.gimel, r, qs, t)
        ranks[rec.gimel] = sum(c * (r - 1) for c, r, _, _ in surface)
    assert len(ranks) == 95
    assert max(ranks.values()) == 18
    assert {g for g, rank in ranks.items() if rank == 18} == {76, 84, 93}


def test_orbifold_euler_number_of_the_elephant():
    # The K3 elephant S = S_d in P(a1,a2,a3,a4) has one A_{r-1} point for
    # each threefold point of index r (see above), and its orbifold Euler
    # number is 24 - sum count*(r - 1/r), each such point trading the r
    # Euler number of its resolution chain for 1/r.  As the degree of c2
    # of the orbifold tangent bundle it is (d/a1a2a3a4)(e2 - d*e1 + d^2),
    # with e1, e2 elementary symmetric in the four weights; this is also
    # -K.c2(X) = 24 - sum(r - 1/r) (Kawamata, "Boundedness of Q-Fano
    # threefolds", 1992).  The recorded side reads only the weights and
    # each row's count and index, never the walk; the rank bound of
    # `test_k3_elephants` holds on both sides.
    for rec in load_families():
        w = rec.weights
        d = w.degree
        e1, e2 = sum(w), sum(a * b for a, b in combinations(w, 2))
        e_orb = Fraction(d * (e2 - d * e1 + d * d), w.a1 * w.a2 * w.a3 * w.a4)
        recorded = [(row.count, row.sing_type.r) for row in rec.rows]
        computed = [(c, t.r) for t, c in type_counts(basket(w)).items()]
        for points in (recorded, computed):
            assert sum(c * (r - Fraction(1, r)) for c, r in points) == 24 - e_orb, rec.gimel
            assert sum(c * (r - 1) for c, r in points) <= 19, rec.gimel
