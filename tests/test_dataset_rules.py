"""Rules that derive the packaged dataset's row tags, `BC` values,
`QI`/`EI` texts and family numbers from the weights, and its `invariant`
column from the tagged rows, checked against every record.

A tag rule reads only the ambient weights (a_0 = 1, a_1, ..., a_4), the
degree d and B^3 = -K^3 - 1/(r*a*(r-a)), the anticanonical cube after the
blow up of the row's 1/r(1,a,r-a) point; it never reads a tag or a text.
Each row a rule misses is pinned by name, so a corrected record, or a
rule that starts to cover it, fails a test here.
"""
import re
from fractions import Fraction

from wfano.blowup import DivisorClass, Tower, anticanonical_class, triple
from wfano.classifier import load_families
from wfano.core import anticanonical_cube
from wfano.enumerator import enumerate_families
from wfano.singularities import singular_points


def tag(row):
    return row.annotation.tag if row.annotation else None


def indices(locus):
    # "P4" -> (4,), "P2P4" -> (2, 4)
    return tuple(int(i) for i in locus.split("P")[1:])


def b_cube(w, t):
    return anticanonical_cube(w) - Fraction(1, t.r * t.a * (t.r - t.a))


def predicted_tag(w, locus, t):
    """The tag of a row at `locus` of type `t` on the family of `w`."""
    a, d = w.ambient, w.degree
    negative = "BC" if b_cube(w, t) < 0 else None
    if len(indices(locus)) == 1:
        (p,) = indices(locus)
        others = [a[j] for j in range(5) if j != p]
        if any(d == 2 * a[p] + b for b in others):
            return "QI"
        if any(d == 3 * a[p] + b for b in others) and any(d == a[p] + 2 * b for b in others):
            return "EI"
        return negative
    i, j = indices(locus)
    return negative or ("QI" if d in (2 * a[i] + a[j], 2 * a[j] + a[i]) else None)


def rows(vertex):
    return [(rec, row) for rec in load_families() for row in rec.rows
            if (len(indices(row.locus)) == 1) == vertex]


def misses(pairs):
    found = []
    for rec, row in pairs:
        want = predicted_tag(rec.weights, row.locus, row.sing_type)
        if want != tag(row):
            found.append((rec.gimel, str(row), want))
    return found


def test_vertex_row_tags_follow_the_weights():
    # P_p: QI iff d = 2a_p + a_j, EI iff d = 3a_p + a_k = a_p + 2a_m
    # (j, k, m != p), and otherwise BC iff B^3 < 0
    assert len(rows(vertex=True)) == 139
    assert misses(rows(vertex=True)) == []


def test_stratum_row_tags_follow_the_weights_but_one():
    # P_iP_j: BC iff B^3 < 0, and otherwise QI iff d = 2a_m + a_k with
    # {m, k} = {i, j}; the rule has no EI, so family 7's EI row is missed
    assert len(rows(vertex=False)) == 109
    assert misses(rows(vertex=False)) == [(7, "P2P3 4x 1/2(1,1,1) EI *tw^2-zt^3,5,8", None)]


def test_invariant_counts_the_involution_rows():
    # F_n with n the points on the record's QI/EI rows; Fhat_n when a QI
    # row lies on a stratum of two equal weights
    hats = []
    for rec in load_families():
        a = rec.weights.ambient
        n = sum(row.count for row in rec.rows if tag(row) in ("QI", "EI"))
        hat = any(tag(row) == "QI" and len(indices(row.locus)) == 2
                  and len({a[i] for i in indices(row.locus)}) == 1 for row in rec.rows)
        hats += [rec.gimel] * hat
        assert rec.invariant == ("Fhat_" if hat else "F_") + str(n), rec.gimel
    assert hats == [4, 9, 17, 27]


def test_family_26_lists_its_stratum_points_on_another_stratum():
    # the walk puts the two 1/3(1,1,2) points on P2P4, where 15 = 2*6 + 3
    # predicts QI; the record lists them untagged on P3P4, where the rule
    # predicts no tag, so the tag test above counts the row as a hit
    walked_loci = lambda w: {loc for c, _, loc in singular_points(w) if c}
    wrong = [rec.gimel for rec in load_families()
             if {row.locus for row in rec.rows} != walked_loci(rec.weights)]
    assert wrong == [26]
    rec = load_families()[25]
    assert rec.gimel == 26 and rec.weights.ambient == (1, 1, 3, 5, 6) and rec.degree == 15
    (walked,) = [(c, t) for c, t, loc in singular_points(rec.weights) if loc == "P2P4"]
    (row,) = [row for row in rec.rows if len(indices(row.locus)) == 2]
    assert (str(row), walked) == ("P3P4 2x 1/3(1,1,2)", (2, row.sing_type))
    assert predicted_tag(rec.weights, "P2P4", row.sing_type) == "QI"
    assert predicted_tag(rec.weights, "P3P4", row.sing_type) is None


def test_bc_values_are_products_on_the_one_center_tower():
    # with B = -K and E the exceptional divisor of the row's point,
    # T = bB + cE has T.B^2 = b*B^3 + c/(a(r-a)); every value but one is
    # negative, and family 83's P1P4 value is +89/11
    nonnegative = []
    bc_rows = [(rec, row) for rec, row in rows(True) + rows(False) if tag(row) == "BC"]
    for rec, row in bc_rows:
        t = row.sing_type
        tower = Tower(rec.weights, (t,))
        B = anticanonical_class(tower)
        b, c = row.annotation.value
        T = DivisorClass(b * B.k_coeff, (b * B.e_coeffs[0] + c,))
        value = triple(tower, T, B, B)
        assert value == b * b_cube(rec.weights, t) + Fraction(c, t.a * (t.r - t.a)), str(row)
        if value >= 0:
            nonnegative.append((rec.gimel, str(row), value))
    assert len(bc_rows) == 133
    assert nonnegative == [(83, "P1P4 2x 1/3(1,1,2) BC 6 18", Fraction(89, 11))]


VARIABLES = "xyztw"  # x_0, ..., x_4, of weights 1, a_1, ..., a_4
_MONOMIAL = r"\*?(?:[xyztw](?:\^\d+)?)+"
_TEXT = re.compile(rf"({_MONOMIAL})(?:-({_MONOMIAL}))?,(\d+),(\d+)")
_FACTOR = re.compile(r"([xyztw])(?:\^(\d+))?")


def involution(text):
    """`[*]monomial[-[*]monomial],n1,n2` as ((starred, {index: exponent}), ...), n1, n2."""
    m = _TEXT.fullmatch(text)
    terms = tuple(
        (t[0] == "*", {VARIABLES.index(v): int(e or 1) for v, e in _FACTOR.findall(t)})
        for t in m.groups()[:2] if t
    )
    return terms, int(m[3]), int(m[4])


def involution_text(terms, n1, n2):
    monomial = lambda mono: "".join(VARIABLES[i] + (f"^{e}" if e > 1 else "")
                                    for i, e in mono.items())
    return "-".join("*" * star + monomial(mono) for star, mono in terms) + f",{n1},{n2}"


def by_exponent(mono):
    # the monomial's variables, lowest exponent first
    return sorted(mono, key=mono.get)


def degree(a, mono):
    return sum(a[i] * e for i, e in mono.items())


def departures(*checks):
    # the (quantity, recorded, rule) triples whose two values differ
    return [c for c in checks if c[1] != c[2]]


def qi_departures(a, d, locus, text):
    # x_j*x_p^2 of degree d with p on the locus; n1 = d - a_p and n2 = d
    ((_, mono),), n1, n2 = involution(text)
    assert sorted(mono.values()) == [1, 2], text
    _, p = by_exponent(mono)
    return departures(("p on the locus", p in indices(locus), True),
                      ("degree", degree(a, mono), d), ("n1", n1, d - a[p]), ("n2", n2, d))


def ei_departures(a, d, locus, text):
    # x_p*x_m^2 - x_k*x_p^3, both of degree d, with p on the locus;
    # n1 = d - a_m and n2 = d
    ((_, first), (_, second)), n1, n2 = involution(text)
    p, m = by_exponent(first)
    _, q = by_exponent(second)
    assert (sorted(first.values()), sorted(second.values()), q) == ([1, 2], [1, 3], p), text
    return departures(("p on the locus", p in indices(locus), True),
                      ("degrees", (degree(a, first), degree(a, second)), (d, d)),
                      ("n1", n1, d - a[m]), ("n2", n2, d))


def involution_departures(name, rule):
    found = {}
    for rec, row in rows(True) + rows(False):
        if tag(row) == name:
            text = row.annotation.value
            found[rec.gimel, row.locus, text] = rule(rec.weights.ambient, rec.degree,
                                                     row.locus, text)
    return found


def test_involution_texts_parse_whole():
    # a text is read back to itself, its `*` markers included
    texts = [row.annotation.value for _, row in rows(True) + rows(False)
             if tag(row) in ("QI", "EI")]
    assert len(texts) == 62
    assert [t for t in texts if involution_text(*involution(t)) != t] == []


def test_qi_texts_follow_the_weights_but_three():
    found = involution_departures("QI", qi_departures)
    assert len(found) == 54
    assert {key: d for key, d in found.items() if d} == {
        (7, "P4", "tw^2,6,8"): [("n1", 6, 5)],
        (16, "P4", "zw^2,8,12"): [("n1", 8, 7)],
        # on P(1,2,3,5,10), t*z^2 has degree 5 + 2*3 = 11, and z is not on P3P4
        (42, "P3P4", "tz^2,15,20"): [("p on the locus", False, True), ("degree", 11, 20),
                                     ("n1", 15, 17)],
    }


def test_ei_texts_follow_the_weights_but_one():
    # all 8 fit the monomials; family 76's n1 is d - a_p = 30 - 8, not d - a_m
    found = involution_departures("EI", ei_departures)
    assert len(found) == 8
    assert {key: d for key, d in found.items() if d} == {
        (76, "P3", "tw^2-zt^3,22,30"): [("n1", 22, 19)],
    }


def test_family_numbers_follow_the_enumeration_order():
    # the enumeration runs in (degree, weights) order; family N is its N-th system
    order = list(enumerate_families(33))
    assert order == sorted(order, key=lambda w: (w.degree, w))
    for rec in load_families():
        assert rec.gimel == 1 + order.index(rec.weights)
