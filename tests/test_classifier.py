import os
import subprocess
import sys
from fractions import Fraction

import pytest

import wfano
from wfano import classifier
from wfano.classifier import (
    INFINITE,
    TYPE_IV_GIMELS,
    TYPE_V_GIMEL,
    Annotation,
    UnknownGimelError,
    derived_type_iv_set,
    family,
    halphen_pencils,
    is_type_iii,
    load_families,
    parse_table,
    serialize_table,
    type_iv_presentation,
    verify_family,
)
from wfano._linescan import PositionedError
from wfano.core import InputError, NonTerminalError, QuotientSingularityType, Weights
from wfano.enumerator import is_quasismooth
from wfano.singularities import stratum_points

# families that carry the distinguished index of a second pencil yet
# have a single one
LOOKALIKES = frozenset({27, 33, 38, 40, 43, 52, 59, 61, 65, 68, 73, 77, 85})


RECORD = """\
# a comment
family 18
weights 2 2 3 5
degree 12
kcube 1/5
invariant F_1
ell 1
pencils 7
row P4 1x 1/5(1,2,3) QI yw^2,7,12
row P1P2 6x 1/2(1,1,1) BC 2 0
"""


def test_parse_single_record():
    (rec,) = parse_table(RECORD)
    assert rec.gimel == 18
    assert rec.weights == Weights(2, 2, 3, 5)
    assert rec.degree == 12
    assert rec.kcube == Fraction(1, 5)
    assert rec.invariant == "F_1"
    assert rec.ell == "1"
    assert rec.pencils == 7
    assert len(rec.rows) == 2
    assert rec.rows[0].annotation == Annotation("QI", "yw^2,7,12")
    assert rec.rows[1].annotation == Annotation("BC", (2, 0))
    assert rec.rows[1].count == 6
    # each row's type is normalized once, as it is read
    assert [row.sing_type for row in rec.rows] == [
        QuotientSingularityType(5, 2), QuotientSingularityType(2, 1)
    ]


def test_parse_errors_are_positioned():
    with pytest.raises(PositionedError) as e:
        parse_table("family 18\nweights 2 2 X 5\n")
    assert (e.value.line, e.value.col) == (2, 13)
    assert e.value.expected == "weight"

    with pytest.raises(PositionedError) as e:
        parse_table("weights 1 2 3 4\n")
    assert e.value.line == 1
    assert e.value.expected == "family"

    with pytest.raises(PositionedError) as e:
        parse_table(RECORD + "family 19\nweights 1 2 3 4\n")
    assert e.value.expected.startswith("degree for family 19")

    with pytest.raises(PositionedError) as e:
        parse_table(RECORD.replace("pencils 7", "pencils seven"))
    assert e.value.expected == "count or 'infinite'"

    with pytest.raises(PositionedError) as e:
        parse_table(RECORD.replace("1/5(1,2,3)", "1/5(1,2)"))
    assert e.value.expected == "type like 1/5(1,2,3)"

    with pytest.raises(PositionedError) as e:
        parse_table(RECORD + "degree 13\n")
    assert e.value.expected == "degree only once per family"

    with pytest.raises(PositionedError) as e:
        parse_table(RECORD + "bogus 13\n")
    assert e.value.expected.startswith("one of family/row")


COUNT, LOCUS = "count like 3x", "locus label like P4 or P2P3"


@pytest.mark.parametrize(
    "old, new, line, col, expected",
    [
        ("P4 1x", "P4 0x", 9, 8, COUNT),  # a locus with no point
        ("P4 1x", "P4 00x", 9, 8, COUNT),
        ("P1P2 6x", "P4P4 6x", 10, 5, LOCUS),  # one coordinate twice
        ("P1P2 6x", "P3P1 6x", 10, 5, LOCUS),  # descending
        # the walk names each locus once, so a second row for one is bad input
        ("P1P2 6x 1/2(1,1,1) BC 2 0", "P1P2 3x 1/2(1,1,1) BC 2 0\nrow P1P2 3x 1/2(1,1,1) BC 2 0",
         11, 5, "locus P1P2 only once per family"),
        # a missing token fails at the end of its line
        ("row P1P2 6x 1/2(1,1,1) BC 2 0", "row", 10, 4, LOCUS),
        ("kcube 1/5", "kcube", 5, 6, "fraction p/q"),
        ("QI yw^2,7,12", "QI", 9, 24, "involution text"),
        ("QI yw^2,7,12", "QI yw^2, 7,12", 9, 31, "end of line"),  # the text is one token
        ("BC 2 0", "BC 2 0  7", 10, 32, "end of line"),  # at the stray token
        # only a whole line is a comment: a trailing `#` is a stray token
        ("weights 2 2 3 5", "weights 2 2 3 5 # note", 3, 17, "end of line"),
        ("QI yw^2,7,12", "XI yw^2,7,12", 9, 22, "annotation BC/QI/EI"),
    ],
    ids=["zero-count", "zero-count-padded", "repeated-locus", "descending-locus", "locus-listed-twice",
         "no-locus", "no-kcube", "no-involution-text", "spaced-involution-text", "trailing-token",
         "trailing-comment", "unknown-annotation"],
)
def test_malformed_rows_are_positioned(old, new, line, col, expected):
    with pytest.raises(PositionedError) as e:
        parse_table(RECORD.replace(old, new))
    assert (e.value.line, e.value.col, e.value.expected) == (line, col, expected)


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("1/5(5,1,4)", "1/5(5,1,4) has a weight divisible by 5"),
        ("1/4(2,1,3)", "1/4(2,1,3) is not isolated-terminal"),
        ("1/5(1,1,1)", "1/5(1,1,1) admits no terminal presentation"),
        ("1/1(1,1,1)", "index must be >= 2, got 1"),
        ("1/0(1,2,3)", "index must be >= 2, got 0"),
    ],
    ids=["weight-divisible-by-r", "not-isolated", "no-presentation", "index-1", "index-0"],
)
def test_non_terminal_row_type_is_positioned(bad, reason):
    # a row is checked where it is read, at its type column
    with pytest.raises(PositionedError) as e:
        parse_table(RECORD.replace("1/5(1,2,3)", bad))
    assert (e.value.line, e.value.col, e.value.expected) == (9, 11, f"terminal type ({reason})")


def test_padded_count_still_parses():
    (rec,) = parse_table(RECORD.replace("P1P2 6x", "P1P2 06x"))
    assert rec.rows[1].count == 6


@pytest.mark.parametrize(
    "old, new, line, col, expected",
    [
        ("family 18", "family 1\u00b2", 2, 8, "family number"),
        ("degree 12", "degree 1\u00b2", 4, 8, "integer"),
        ("degree 12", "degree \u0661\u0662", 4, 8, "integer"),
        ("pencils 7", "pencils \u00b2", 8, 9, "count or 'infinite'"),
        ("BC 2 0", "BC \u00b2 0", 10, 27, "integer b"),
        ("kcube 1/5", "kcube \u0661/5", 5, 7, "fraction p/q"),
        ("kcube 1/5", "kcube 1/5\u0660", 5, 7, "fraction p/q"),
        ("P4 1x", "P4 1\u0660x", 9, 8, "count like 3x"),
        ("1/5(1,2,3)", "1/\u0665(1,2,3)", 9, 11, "type like 1/5(1,2,3)"),
        ("1/5(1,2,3)", "1/5(1,\u0662,3)", 9, 11, "type like 1/5(1,2,3)"),
    ],
    ids=["family", "degree", "degree-arabic-indic", "pencils", "bc", "kcube-numerator", "kcube-denominator",
         "count", "type-index", "type-weight"],
)
def test_integers_are_ascii(old, new, line, col, expected):
    # '²' passes str.isdigit but not int(); '\u0661' (ARABIC-INDIC DIGIT
    # ONE) matches a plain regex \d, and int() reads it
    with pytest.raises(PositionedError) as e:
        parse_table(RECORD.replace(old, new))
    assert (e.value.line, e.value.col, e.value.expected) == (line, col, expected)


# characters that `str.splitlines` ends a line at and text-mode reading
# does not; each is whitespace to `str.isspace` and to `\S`
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NOT_LINE_END_IDS = ["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"]


@pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=NOT_LINE_END_IDS)
def test_a_comment_ends_only_at_a_line_end(sep):
    # the comment's tail is no content line, and later lines keep the
    # file's numbers
    assert parse_table(RECORD.replace("# a comment", f"# a{sep}comment")) == parse_table(RECORD)
    with pytest.raises(PositionedError) as e:
        parse_table(RECORD.replace("# a comment", f"# a{sep}# b").replace("pencils 7", "pencils x"))
    assert (e.value.line, e.value.col) == (8, 9)


@pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=NOT_LINE_END_IDS)
def test_a_non_line_end_between_tokens_is_whitespace(sep):
    text = RECORD.replace("weights 2 2 3 5", f"weights 2{sep}2 3 5")
    assert parse_table(text) == parse_table(RECORD)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_end_a_line(end):
    assert parse_table(RECORD.replace("\n", end)) == parse_table(RECORD)
    with pytest.raises(PositionedError) as e:
        parse_table(RECORD.replace("pencils 7", "pencils x").replace("\n", end))
    assert (e.value.line, e.value.col) == (8, 9)


def test_parse_rejects_duplicates():
    # a repeated family fails at its own `family` line, at the number, once
    # the record before it is filed: here that record is the first family 18
    with pytest.raises(PositionedError) as e:
        parse_table(RECORD + "\n" + RECORD)
    assert (e.value.line, e.value.col) == (13, 8)
    assert str(e.value) == "13:8: expected new family number (family 18 appears twice)"
    with pytest.raises(PositionedError) as e:
        parse_table(RECORD.replace("ell 1\n", "ell 1\nell 2\n"))
    assert (e.value.line, e.value.col, e.value.expected) == (8, 1, "ell only once per family")
    # the number comes before the stray token, so the duplicate is reported
    with pytest.raises(PositionedError) as e:
        parse_table("family 1\nweights 1 1 1 1\ndegree 4\nkcube 4\ninvariant F_0\n"
                    "ell infinite\npencils infinite\nfamily 1 x\n")
    assert str(e.value) == "8:8: expected new family number (family 1 appears twice)"


def test_a_record_is_closed_before_the_next_family_number():
    # two faults: family 1 has no ell, and the next family has no number;
    # the record above is closed, and fails, first
    with pytest.raises(PositionedError) as e:
        parse_table("family 1\nweights 1 1 1 1\ndegree 4\nkcube 4\ninvariant F_0\n"
                    "pencils infinite\n\nfamily x\n")
    assert str(e.value) == "1:1: expected ell for family 1"


def test_parse_empty_is_missing():
    # no record at all fails at 1:1, as a tower text with no header does
    with pytest.raises(PositionedError) as e:
        parse_table("# nothing here\n\n")
    assert str(e.value) == "1:1: expected family record"


def test_roundtrip_identity():
    records = load_families()
    text = serialize_table(records)
    assert tuple(parse_table(text)) == records
    assert serialize_table(parse_table(text)) == text


def test_annotations_of_different_kinds_never_compare_equal():
    # the tag is a field of the annotation, so a row re-tagged from QI to
    # EI differs from the original, and no BC equals a QI or an EI
    (rec,) = parse_table(RECORD)
    (retagged,) = parse_table(RECORD.replace("QI yw^2", "EI yw^2"))
    assert retagged.rows[0].annotation == Annotation("EI", "yw^2,7,12")
    assert retagged.rows[0] != rec.rows[0]
    assert retagged != rec
    assert Annotation("BC", (1, 2)) != Annotation("QI", "x")


def test_dataset_shape():
    records = load_families()
    assert len(records) == 95
    assert [r.gimel for r in records] == list(range(1, 96))
    assert sum(len(r.rows) for r in records) == 248


def test_unknown_gimel():
    with pytest.raises(UnknownGimelError):
        family(999)


def test_type_iv_presentation_examples():
    assert type_iv_presentation(Weights(3, 4, 5, 8)) == (4, 2)
    # family 95: only the first weight divides; m = 60/5
    assert type_iv_presentation(Weights(5, 6, 22, 33)) == (1, 12)
    assert type_iv_presentation(Weights(2, 3, 4, 5)) == "no index divides 11"
    # index 1 and index 3 both divide 20: the high index wins
    assert type_iv_presentation(Weights(2, 3, 5, 13)) == (3, 4)
    # index 4 divides 10, but a1 = a2 rules the presentation out
    assert type_iv_presentation(Weights(2, 2, 3, 5)) == "a1 = a2"
    # a3 = 3 divides 9 but equals a2, so it is no candidate
    assert type_iv_presentation(Weights(2, 3, 3, 4)) == "no index divides 9"
    # indices 3 and 4 both divide 12: a tie, reported before anything else
    assert type_iv_presentation(Weights(2, 3, 4, 6)) == (
        "indices [3, 4] both divide 12 for P(1,2,3,4,6)"
    )
    assert type_iv_presentation(Weights(1, 1, 2, 3)) == (
        "indices [3, 4] both divide 6 for P(1,1,1,2,3)"
    )


def type_iii_point_count(w):
    # the count `halphen_pencils` reads for a type-III family
    return stratum_points(w.ambient, w.degree, 1, 2)


def test_type_iii_point_count():
    assert type_iii_point_count(Weights(2, 2, 3, 5)) == 6
    assert type_iii_point_count(Weights(3, 3, 4, 11)) == 7
    assert type_iii_point_count(Weights(4, 4, 5, 7)) == 5
    # the walk's P1P2 count is d/a = (3a + a4 + 1)/a wherever a divides d
    for a in range(2, 7):
        for a4 in range(a + 1, 60):
            if (3 * a + a4 + 1) % a == 0:
                assert type_iii_point_count(Weights(a, a, a + 1, a4)) == (3 * a + a4 + 1) // a
    # the right shape, but d = 11 is odd: the P1P2 line lies inside the member
    with pytest.raises(NonTerminalError, match="stratum P1P2 lies inside"):
        type_iii_point_count(Weights(2, 2, 3, 4))


def test_count_formula_check_survives_optimize():
    # python -O strips asserts; the check must not be one
    code = (
        "from wfano.core import NonTerminalError, Weights\n"
        "from wfano.singularities import stratum_points\n"
        "w = Weights(2, 2, 3, 4)\n"
        "try:\n"
        "    stratum_points(w.ambient, w.degree, 1, 2)\n"
        "except NonTerminalError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(wfano.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert result.returncode == 0


def test_counts_match_dataset_everywhere():
    for rec in load_families():
        assert (len(halphen_pencils(rec)) or INFINITE) == rec.pencils, rec.gimel


def test_infinite_exactly_when_second_weight_is_one():
    infinite = {rec.gimel for rec in load_families() if halphen_pencils(rec) == ()}
    assert infinite == {1, 2, 3, 4, 5, 6, 8, 10, 14}
    for rec in load_families():
        assert (rec.weights.a2 == 1) == (rec.gimel in infinite)


def test_triple_point_families():
    for gimel, total in ((18, 7), (22, 8), (28, 6)):
        pencils = halphen_pencils(family(gimel))
        assert len(pencils) == total
        kinds = [p.kind for p in pencils]
        assert kinds == ["type III distinguished"] + ["type III point"] * (total - 1)
        points = [p.generator_text.rpartition(" #")[2] for p in pencils[1:]]
        assert points == [str(i) for i in range(1, total)]
        a1 = family(gimel).weights.a1
        assert all(p.n == a1 for p in pencils)


def test_two_pencil_membership_is_cross_derivable():
    records = load_families()
    assert derived_type_iv_set(records) == TYPE_IV_GIMELS
    two = {r.gimel for r in records if r.pencils == 2}
    assert two == TYPE_IV_GIMELS | {TYPE_V_GIMEL}


def test_divisibility_alone_does_not_give_membership():
    # the lookalikes have a single pencil: the count is genuinely extra
    # information
    for gimel in LOOKALIKES:
        rec = family(gimel)
        w = rec.weights
        assert w.a1 not in (1, w.a2)
        assert not is_type_iii(w)
        assert isinstance(type_iv_presentation(w), tuple)
        assert rec.pencils == 1
        assert gimel not in TYPE_IV_GIMELS


def test_pencil_members_quasismooth():
    # Putting one pencil generator in place of the other leaves a general
    # polynomial of degree d: the member of lambda*x^a1 + mu*y is a general
    # S_d in P(1,a2,a3,a4), the member of lambda*x^a2 + mu*z one in
    # P(1,a1,a3,a4).  Which of them are quasismooth is where a
    # Kodaira-dimension oracle for the pencil counts starts.
    principal = [rec.weights for rec in load_families() if rec.weights.a2 >= 2]
    assert len(principal) == 86
    smooth = [w for w in principal if is_quasismooth((1, w.a2, w.a3, w.a4), w.degree)]
    assert len(smooth) == 58
    assert sum(1 for w in smooth if w.a1 >= 2) == 26

    def type_iv_member_quasismooth(gimel):
        w = family(gimel).weights
        return is_quasismooth((1, w.a1, w.a3, w.a4), w.degree)

    assert {g for g in TYPE_IV_GIMELS if type_iv_member_quasismooth(g)} == {84, 93, 95}
    smooth_lookalikes = {g for g in LOOKALIKES if type_iv_member_quasismooth(g)}
    assert smooth_lookalikes == {27, 38, 43, 52, 59, 61, 68, 73}


def test_type_iv_descriptor_shape():
    principal, extra = halphen_pencils(family(91))
    assert principal.kind == "principal"
    assert principal.n == 4
    assert extra.kind == "type IV"
    assert extra.n == 5
    assert "x^5" in extra.generator_text


def test_type_v_family():
    principal, v = halphen_pencils(family(60))
    assert (principal.kind, v.kind) == ("principal", "type V")
    assert v.n == 6


def test_pencil_degrees_are_expected_values():
    for rec in load_families():
        w = rec.weights
        for p in halphen_pencils(rec):
            assert p.n in {1, w.a1, w.a2, 6}


def test_distinct_low_weights_cap_the_count():
    # families with a1 != a2 never carry more than two pencils
    for rec in load_families():
        w = rec.weights
        if w.a1 != w.a2 and rec.pencils is not INFINITE:
            assert rec.pencils <= 2, rec.gimel


def test_weight_one_families_have_one_principal_pencil():
    for rec in load_families():
        w = rec.weights
        if w.a1 == 1 and w.a2 != 1:
            (p,) = halphen_pencils(rec)
            assert p.kind == "principal" and p.n == 1


def test_infinite_families_have_no_descriptors():
    assert halphen_pencils(family(5)) == ()
    # the caller guard: nothing to disambiguate on the quartic
    assert type_iv_presentation(Weights(1, 1, 1, 1)) == "a1 = 1"


def test_verify_family_18_passes():
    checks = verify_family(family(18))
    names = [c.name for c in checks]
    assert "kcube" in names
    assert "basket types" in names
    assert "pencil count rule" in names
    assert "distinguished point count" in names
    assert all(c.passed for c in checks)


def test_distinguished_points_are_the_recorded_ones(no_dataset):
    # the check reads the points from the record's P1P2 rows, so a row that
    # lists one point too few fails it although the count matches the walk
    (rec,) = parse_table(RECORD.replace("row P1P2 6x", "row P1P2 5x"))
    checks = {c.name: c for c in verify_family(rec)}
    c = checks["distinguished point count"]
    assert (c.passed, c.expected, c.actual) == (False, "7", "1 + 5")
    assert checks["pencil count rule"].passed


def test_verify_family_95_has_negative_blowup_row():
    # 1/330 - 1/30 = -1/33 at the 1/5(1,2,3) point, hence its BC entry
    checks = {c.name: c for c in verify_family(family(95))}
    c = checks["bc presence P1 1/5(1,2,3)"]
    assert c.passed
    assert "-1/33" in c.actual


def listed(weights, degree, kcube, pencils):
    """A record on the type-IV list, parsed from text; no basket rows."""
    (rec,) = parse_table(
        f"family 45\nweights {weights}\ndegree {degree}\nkcube {kcube}\n"
        f"invariant F_0\nell 1\npencils {pencils}\n"
    )
    return rec


@pytest.fixture
def no_dataset(monkeypatch):
    # the rules are functions of the record: reading the dataset is a bug
    def unreachable(*args):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(classifier, "family", unreachable)
    monkeypatch.setattr(classifier, "load_families", unreachable)


@pytest.mark.parametrize(
    "weights, degree, kcube, actual",
    [
        ("1 1 2 3", 7, "7/6", "indices [3, 4] both divide 6 for P(1,1,1,2,3)"),
        ("1 2 3 5", 11, "11/30", "a1 = 1"),
        ("2 2 3 5", 12, "1/5", "a1 = a2"),
        ("2 3 4 5", 14, "7/60", "no index divides 11"),
    ],
    ids=["tie", "a1-is-1", "a1-is-a2", "no-divisor"],
)
def test_missing_presentation_gives_its_reason(no_dataset, weights, degree, kcube, actual):
    checks = {c.name: c for c in verify_family(listed(weights, degree, kcube, 2))}
    check = checks["second pencil presentation"]
    assert not check.passed
    assert (check.expected, check.actual) == ("index j with a1+a3+a4 = m*a_j", actual)


def test_listed_presentation_passes(no_dataset):
    # family 91's weights, on the list under another number
    checks = {c.name: c for c in verify_family(listed("4 5 13 22", 44, "1/130", 2))}
    check = checks["second pencil presentation"]
    assert check.passed and check.actual == "j=3, m=3"
    assert checks["pencil count rule"].passed


@pytest.mark.parametrize(
    "weights", ["1 2 3 5", "2 3 4 5", "2 3 4 6"], ids=["a1-is-1", "no-divisor", "tie"]
)
def test_listed_record_without_presentation_has_one_pencil(no_dataset, weights):
    (p,) = halphen_pencils(listed(weights, 1, 1, 2))
    assert p.kind == "principal"


def test_loading_rejects_inadmissible_weights(tmp_path, monkeypatch):
    text = RECORD.replace("weights 2 2 3 5", "weights 3 4 4 5")
    (rec,) = parse_table(text)  # the parser only parses
    assert rec.weights == Weights(3, 4, 4, 5)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    monkeypatch.setenv("WFANO_DATA", str(bad))
    message = "family 18: 1/5(3,4,4) admits no terminal presentation"
    with pytest.raises(InputError) as info:
        load_families()
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, NonTerminalError)


def test_env_var_overrides_dataset(tmp_path, monkeypatch):
    alt = tmp_path / "alt.txt"
    alt.write_text(RECORD.replace("pencils 7", "pencils 4"))
    monkeypatch.setenv("WFANO_DATA", str(alt))
    recs = load_families()
    assert len(recs) == 1 and recs[0].pencils == 4
    monkeypatch.delenv("WFANO_DATA")
    assert len(load_families()) == 95
