import pytest

from wfano.classifier import family, load_families
from wfano.core import NonTerminalError, QuotientSingularityType, Weights, normalize_singularity
from wfano.singularities import (
    basket,
    coordinate_point_type,
    singular_points,
    stratum_points,
)


def test_coordinate_point_types():
    w = Weights(1, 2, 3, 5)
    assert coordinate_point_type(w, 4) == QuotientSingularityType(5, 2)
    assert coordinate_point_type(w, 3) == QuotientSingularityType(3, 1)
    assert coordinate_point_type(w, 2) == QuotientSingularityType(2, 1)


def test_no_eliminator_at_bad_vertex():
    # degree 18, weight-5 vertex: no other coordinate can pair with a
    # power of x3, so the general member is forced through a worse point
    with pytest.raises(NonTerminalError, match="no monomial x_3"):
        coordinate_point_type(Weights(2, 4, 5, 7), 3)


def _normalized_or_error(r, qs):
    try:
        return normalize_singularity(r, *qs)
    except ValueError as exc:
        return type(exc)


def test_every_eliminator_gives_the_same_point():
    # coordinate_point_type eliminates only the first x_j with a monomial
    # x_i^k x_j of degree d.  Every eliminator has weight = d mod a_i, so
    # any of them leaves the same local weights mod a_i; check that on
    # every singular vertex of every member with a4 <= 40
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
    count, t = stratum_points(Weights(1, 2, 2, 3), 2, 3)
    assert count == 4
    assert t == QuotientSingularityType(2, 1)


def test_stratum_empty_restriction():
    # no monomial of degree 10 in two weight-3 variables
    with pytest.raises(NonTerminalError, match="stratum P2P3 lies inside"):
        stratum_points(Weights(1, 3, 3, 3), 2, 3)


def test_vertex_preconditions():
    w = Weights(1, 2, 3, 6)  # degree 12
    with pytest.raises(ValueError, match="nothing to compute"):
        coordinate_point_type(w, 1)  # weight 1
    with pytest.raises(ValueError, match="does not lie on"):
        coordinate_point_type(w, 3)  # x3^4 has degree 12
    for i in (-1, 0, 5):
        with pytest.raises(ValueError, match=f"must be in 1..4, got {i}"):
            coordinate_point_type(w, i)


def test_singular_points_walk_vertices_then_strata():
    # family 18 = P(1,2,2,3,5), degree 12: the 1/5 vertex, then six 1/2
    # points on the (2,2) edge; the other vertices are off the member
    assert list(singular_points(Weights(2, 2, 3, 5))) == [
        (1, QuotientSingularityType(5, 2), "P4"),
        (6, QuotientSingularityType(2, 1), "P1P2"),
    ]


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


@pytest.mark.parametrize("gimel", [5, 13, 18, 60, 91, 95])
def test_basket_matches_dataset(gimel):
    rec = family(gimel)
    expected = {}
    for row in rec.basket_rows:
        st = row.sing_type
        expected[st] = expected.get(st, 0) + row.count
    assert dict(basket(rec.weights).type_multiset()) == expected


def test_basket_entry_renders_as_the_cli_line():
    (entry,) = [e for e in basket(family(91).weights) if e.locus == "P3"]
    assert str(entry) == "1 x 1/13(1,4,9) at P3"


def test_smooth_families_have_empty_basket():
    for gimel in (1, 3):
        rec = family(gimel)
        assert basket(rec.weights).entries == ()


def test_family_26_locus_label():
    # the dataset records these two points on the P3P4 edge, but the
    # weights (1,1,3,5,6) only allow them on the (3,6) edge, i.e. P2P4;
    # counts and types agree, so only the printed label is off
    rec = family(26)
    (row,) = [r for r in rec.basket_rows if r.count == 2]
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
        recorded = {(r.locus, r.sing_type, r.count) for r in rec.basket_rows}
        assert computed == recorded, rec.gimel
