from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest

from wfano import classifier, singularities, towers
from wfano._linescan import PositionedError
from wfano.classifier import FamilyCheck, family, load_families
from wfano.core import InputError, Weights
from wfano.singularities import quotient_points, singular_points
from wfano.towers import FIXTURES, evaluate, fixture_checks, load_fixture, parse_tower_text

GOOD = """\
# two blow ups over explicit weights
weights 1 2 3 5
center 5 2
center 2 1 track e1=1/2
class S 1 -1/5 -1/2
class T 0 1 -1/2
triple S S T
surface S
curves C L
restrict S = C + L
restrict T = L
"""


def test_parse_and_evaluate():
    spec = parse_tower_text(GOOD)
    assert spec.tower.base == Weights(1, 2, 3, 5)
    assert len(spec.tower.centers) == 2
    ev = evaluate(spec)
    assert ev.neg_k_cube == Fraction(-1, 6)
    assert ev.triples == ((("S", "S", "T"), Fraction(-1, 3)),)
    assert ev.gram_matrix == (
        (Fraction(-5, 6), Fraction(1)),
        (Fraction(1), Fraction(-4, 3)),
    )
    assert ev.negative_definite is True


def test_family_header_resolves_weights():
    spec = parse_tower_text("family 13\ncenter 3 1\ncenter 2 1\n")
    assert spec.tower.base == Weights(1, 2, 3, 5)
    assert evaluate(spec).neg_k_cube == Fraction(-3, 10)


@pytest.mark.parametrize(
    "text",
    ["family 25\ncenter 7 3\ncenter 4 1\ncenter 3 1\n",
     "weights 1 2 3 5\ncenter 5 2\ncenter 3 1\ncenter 2 1\n"],
    ids=["family", "weights"],
)
def test_header_walks_its_base_once(monkeypatch, text):
    # the walk is memoized per process: once the dataset has loaded, a
    # `family` header walks nothing; a `weights` header walks its base once
    # on a cold memo and not at all on a second parse
    walks = []

    def walk(ws, d):
        walks.append(ws)
        return quotient_points(ws, d)

    monkeypatch.setattr(singularities, "quotient_points", walk)
    singular_points.cache_clear()
    classifier._load.cache_clear()
    load_families()
    if text.startswith("weights"):
        singular_points.cache_clear()
    walks.clear()
    spec = parse_tower_text(text)
    assert len(spec.tower.centers) == 3
    expected = [] if text.startswith("family") else [spec.tower.base.ambient]
    assert walks == expected
    assert parse_tower_text(text) == spec
    assert walks == expected


def test_no_gram_block():
    ev = evaluate(parse_tower_text("weights 1 3 4 7\ncenter 4 1\ncenter 3 1\n"))
    assert ev.neg_k_cube == Fraction(-1, 14)
    assert ev.gram_matrix is None
    assert ev.negative_definite is None


def test_fixture_table_matches_the_packaged_files():
    # `verify` prints a fixture's checks under the family its entry names
    folder = resources.files("wfano").joinpath("data/towers")
    shipped = {p.name.removesuffix(".tower") for p in folder.iterdir() if p.name.endswith(".tower")}
    assert sorted(f.name for f in FIXTURES) == sorted(shipped)
    # the 95 weight systems are distinct, so a file's base names its family
    assert len({rec.weights for rec in load_families()}) == 95
    for f in FIXTURES:
        assert load_fixture(f).tower.base == family(f.gimel).weights, f.name


def scaled_restriction():
    return GOOD.replace("restrict T = L", "restrict T = 1/2C + 2L")


def test_fractional_decomposition_coefficients():
    spec = parse_tower_text(scaled_restriction())
    (r1, r2) = spec.gram.restrictions
    assert r1.coefficients == (Fraction(1), Fraction(1))
    assert r2.coefficients == (Fraction(1, 2), Fraction(2))


@pytest.mark.parametrize(
    "mangle, line, expected_part",
    [
        (lambda s: s.replace("weights 1 2 3 5", "banana 1 2 3 5"), 2, "family or weights"),
        (lambda s: s.replace("center 5 2", "center 5 x"), 3, "weight a"),
        (lambda s: s.replace("track e1=1/2", "track e1:1/2"), 4, "tracked multiplicity"),
        (lambda s: s.replace("class S 1 -1/5 -1/2", "class S 1 -1/5"), 5, "exceptional coefficient"),
        (lambda s: s.replace("triple S S T", "triple S S Q"), 7, "defined class name"),
        (lambda s: s.replace("restrict T = L", "restrict T = L + M"), 11, "term like"),
        (lambda s: s.replace("restrict T = L", "restrict T L"), 11, "="),
        (lambda s: s + "center 2 1\n", 12, "centers before classes"),
        (lambda s: s.replace("track e1=1/2", "track"), 4, "tracked multiplicity like e1=1/4"),
        (lambda s: s.replace("track e1=1/2", "track e1=1/2 x"), 4, "multiplicity like e1=1/4"),
        (lambda s: s.replace("track e1=1/2", "banana e1=1/2"), 4, "track"),
        # P(1,1,2,3,5) of degree 11 has no 1/4 point
        (lambda s: s.replace("center 5 2", "center 4 1"), 3, "a first center at a point"),
        (lambda s: s.replace("weights 1 2 3 5", "weights 2 4 5 7"), 2, "admissible weights"),
        # a track names an earlier stage, once, with m > 0 and m*r an integer
        (lambda s: s.replace("e1=1/2", "e2=1/2"), 4, "center at stage 2 tracks stage 2"),
        (lambda s: s.replace("e1=1/2", "e0=1/2"), 4, "center at stage 2 tracks stage 0"),
        (lambda s: s.replace("e1=1/2", "e1=1/2 e1=1"), 4, "stage 1 tracked twice"),
        (lambda s: s.replace("e1=1/2", "e1=0"), 4, "multiplicity 0 invalid at a 1/2 point"),
        (lambda s: s.replace("e1=1/2", "e1=1/3"), 4, "multiplicity 1/3 invalid at a 1/2 point"),
        (lambda s: s.replace("weights 1 2 3 5\n", "weights 1 2 3 5\nweights 1 2 3 5\n"), 3,
         "a single family/weights header"),
        (lambda s: s.replace("center 5 2", "center 1 1"), 3, "valid center (index must be >= 2"),
        (lambda s: s.replace("center 5 2", "center 5 3"), 3, "valid center (need 1 <= a <= r-a"),
        (lambda s: s.replace("triple S S T", "triple S S"), 7, "class name"),
        (lambda s: s.replace("triple S S T", "banana S S T"), 7, "one of family/weights/center"),
        (lambda s: s.replace("surface S\n", "surface S\nsurface S\n"), 9, "a single surface line"),
        (lambda s: s.replace("curves C L\n", "curves C L\ncurves C L\n"), 10, "a single curves line"),
        (lambda s: s.replace("curves C L", "curves C C"), 9, "fresh curve name"),
        (lambda s: s.replace("curves C L", "curves"), 9, "at least one curve name"),
        (lambda s: s.replace("curves C L\nrestrict S = C + L", "restrict S = C + L\ncurves C L"), 9,
         "curves line before restrict"),
        (lambda s: s.replace("restrict T = L", "restrict T ="), 11, "curve decomposition"),
    ],
)
def test_positioned_errors(mangle, line, expected_part):
    with pytest.raises(PositionedError) as e:
        parse_tower_text(mangle(GOOD))
    assert e.value.line == line
    assert expected_part in e.value.expected


def test_track_error_is_at_the_center():
    with pytest.raises(PositionedError) as e:
        parse_tower_text(GOOD.replace("e1=1/2", "e1=1/2 e1=1"))
    assert (e.value.line, e.value.col, e.value.expected) == (
        4, 8, "valid center (stage 1 tracked twice)"
    )


@pytest.mark.parametrize(
    "lines, error",
    [
        ("center 7 3 track x",
         "2:8: expected a first center at a point of the general member of P(1,1,2,3,5)"),
        ("center 5 2 track e1=1/5 e2:1",
         "2:8: expected valid center (center at stage 1 tracks stage 1)"),
        ("center 5 2\ncenter 2 1 track e1=1/3 e1:x",
         "3:8: expected valid center (multiplicity 1/3 invalid at a 1/2 point)"),
        ("class S 1\nsurface S\nsurface T", "4:1: expected a single surface line"),
    ],
    ids=["first-center", "stage", "multiplicity", "second-surface"],
)
def test_a_center_line_reports_its_first_fault(lines, error):
    # each last line has two faults, and the one read first is reported; a
    # fault of a center's type or of a track is reported at the r column
    with pytest.raises(PositionedError) as e:
        parse_tower_text(f"weights 1 2 3 5\n{lines}\n")
    assert str(e.value) == error


def test_center_integers_are_ascii():
    with pytest.raises(PositionedError) as e:
        parse_tower_text(GOOD.replace("center 5 2", "center 5 \u00b2"))
    assert (e.value.line, e.value.col, e.value.expected) == (3, 10, "weight a")


NON_ASCII_DIGITS = [
    ("e1=1/2", "e1=\u0661/2", 4, 18, "tracked multiplicity like e1=1/4"),
    ("e1=1/2", "e\u0661=1/2", 4, 18, "tracked multiplicity like e1=1/4"),
    ("class S 1 ", "class S \u0661 ", 5, 9, "coefficient of H"),
    ("-1/5 -1/2", "-\u0661/5 -1/2", 5, 11, "exceptional coefficient"),
    ("curves C L", "curves C L\u0662", 9, 10, "fresh curve name"),
    ("restrict T = L", "restrict T = \u0662L", 11, 14, "term like 5L or C (got '\u0662L')"),
]
NON_ASCII_IDS = ["track-multiplicity", "track-stage", "h-coefficient", "e-coefficient",
                 "curve-name", "term"]


@pytest.mark.parametrize("old, new, line, col, expected", NON_ASCII_DIGITS, ids=NON_ASCII_IDS)
def test_regex_numbers_are_ascii(old, new, line, col, expected):
    # '\u0661' (ARABIC-INDIC DIGIT ONE) matches a plain \d and int() reads it
    with pytest.raises(PositionedError) as e:
        parse_tower_text(GOOD.replace(old, new))
    assert (e.value.line, e.value.col, e.value.expected) == (line, col, expected)


# characters that `str.splitlines` ends a line at and text-mode reading
# does not; each is whitespace to `str.isspace` and to `\S`
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NOT_LINE_END_IDS = ["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"]


@pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=NOT_LINE_END_IDS)
def test_a_comment_ends_only_at_a_line_end(sep):
    # the comment's tail is no content line, and later lines keep the
    # file's numbers, the Gram block's included
    text = GOOD.replace("# two blow ups", f"# two{sep}blow ups")
    assert parse_tower_text(text) == parse_tower_text(GOOD)
    with pytest.raises(PositionedError) as e:
        parse_tower_text(f"weights 1 2 3 5\n# a{sep}# b\ncenter 7 3\n")
    assert (e.value.line, e.value.col) == (3, 8)


@pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=NOT_LINE_END_IDS)
def test_a_non_line_end_between_tokens_is_whitespace(sep):
    text = GOOD.replace("center 5 2", f"center{sep}5 2")
    assert parse_tower_text(text) == parse_tower_text(GOOD)


@pytest.mark.parametrize(
    "sep", ["\t", "\u3000", *NOT_LINE_ENDS], ids=["tab", "ideo", *NOT_LINE_END_IDS]
)
def test_columns_count_code_points_after_any_whitespace(sep):
    # each separator is one code point, and leading whitespace counts
    cases = [
        (f"class S 1{sep}-1/5 x", (5, 16, "exceptional coefficient")),
        (f"{sep}class S 1{sep}-1/5 x", (5, 17, "exceptional coefficient")),
        (f"class S 1{sep}-1/5{sep}", (5, 15, "exceptional coefficient")),  # one past the last token
    ]
    for line, want in cases:
        with pytest.raises(PositionedError) as e:
            parse_tower_text(GOOD.replace("class S 1 -1/5 -1/2", line))
        assert (e.value.line, e.value.col, e.value.expected) == want


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_end_a_line(end):
    assert parse_tower_text(GOOD.replace("\n", end)) == parse_tower_text(GOOD)
    with pytest.raises(PositionedError) as e:
        parse_tower_text(f"weights 1 2 3 5{end}# a{end}center 7 3{end}")
    assert (e.value.line, e.value.col) == (3, 8)


def test_term_error_is_at_the_term():
    with pytest.raises(PositionedError) as e:
        parse_tower_text(GOOD.replace("restrict T = L", "restrict T =  L + M"))
    assert (e.value.line, e.value.col) == (11, 19)


@pytest.mark.parametrize(
    "body, col, expected",
    [
        ("2 C + L", 14, "term like 5L or C (got '2')"),  # a space inside a term
        ("2C+L", 14, "term like 5L or C (got '2C+L')"),  # a `+` without spaces
        ("C +L", 16, "+"),
        ("C +", 17, "term like 5L or C"),
    ],
    ids=["spaced-term", "unspaced-plus", "half-spaced-plus", "trailing-plus"],
)
def test_a_term_and_each_plus_are_one_token(body, col, expected):
    with pytest.raises(PositionedError) as e:
        parse_tower_text(GOOD.replace("restrict S = C + L", f"restrict S = {body}"))
    assert (e.value.line, e.value.col, e.value.expected) == (10, col, expected)


def test_a_curve_named_twice_adds_up():
    twice = evaluate(parse_tower_text(GOOD.replace("restrict S = C + L", "restrict S = C + L + L")))
    assert twice == evaluate(parse_tower_text(GOOD.replace("restrict S = C + L", "restrict S = C + 2L")))


def test_empty_input():
    with pytest.raises(PositionedError):
        parse_tower_text("# nothing\n")


def test_center_must_be_terminal():
    with pytest.raises(PositionedError) as e:
        parse_tower_text("weights 1 2 3 5\ncenter 4 2\n")
    assert "valid center" in e.value.expected


def test_gram_block_needs_surface():
    # an incomplete Gram block fails at column 1 of its first line
    head = "weights 1 2 3 5\ncenter 2 1\nclass S 1 -1/2\n"
    for block, expected in [
        ("curves C\nrestrict S = C\n", "surface line for the Gram block"),
        ("surface S\ncurves C\n", "restrict lines for the Gram block"),
    ]:
        with pytest.raises(PositionedError) as e:
            parse_tower_text(head + block)
        assert (e.value.line, e.value.col, e.value.expected) == (4, 1, expected)


def test_underdetermined_payload_propagates():
    text = (
        "weights 1 2 3 5\ncenter 2 1\nclass S 1 -1/2\n"
        "surface S\ncurves C L\nrestrict S = C + L\n"
    )
    with pytest.raises(InputError, match="2 of 3 Gram entries stay free"):
        evaluate(parse_tower_text(text))


def test_duplicate_class_and_restrict():
    with pytest.raises(PositionedError) as e:
        parse_tower_text(GOOD.replace("class T", "class S"))
    assert "fresh class name" in e.value.expected
    with pytest.raises(PositionedError) as e:
        parse_tower_text(GOOD + "restrict T = L\n")
    assert "restricted once" in e.value.expected
    assert (e.value.line, e.value.col) == (12, 10)  # at the class name


def test_a_dataset_error_is_not_charged_to_a_packaged_tower(tmp_path, monkeypatch):
    # the dataset is loaded before a packaged file is parsed, so its own
    # positioned error reaches the caller as it is
    bad = tmp_path / "bad.txt"
    bad.write_text("family 13\nweights 1 2 3\n")
    monkeypatch.setenv("WFANO_DATA", str(bad))
    with pytest.raises(PositionedError) as e:
        load_fixture(FIXTURES[0])
    assert (e.value.line, e.value.col, e.value.expected) == (2, 14, "weight")
    assert "packaged" not in str(e.value)


def test_unknown_family_header_is_positioned():
    with pytest.raises(PositionedError) as e:
        parse_tower_text("family 999\n")
    assert (e.value.line, e.value.col) == (1, 8)
    assert e.value.expected == "a known family (no family 999 in the dataset)"


GRAM_91 = "-1/6 0 / 0 -2/9"


@pytest.mark.parametrize(
    "change, failed",
    [
        (
            lambda ev: replace(ev, neg_k_cube=ev.neg_k_cube + 1),
            FamilyCheck("neg_k_cube tower [1/13(1,4,9),1/4(1,1,3)] = -7/90", False, "-7/90", "83/90"),
        ),
        (
            lambda ev: replace(ev, gram_matrix=((Fraction(-1, 6), 0), (0, Fraction(-1, 3)))),
            FamilyCheck("gram tower [1/13(1,4,9),1/4(1,1,3)]", False,
                        f"{GRAM_91}, negative-definite", "-1/6 0 / 0 -1/3, negative-definite"),
        ),
        (
            lambda ev: replace(ev, negative_definite=False),
            FamilyCheck("gram tower [1/13(1,4,9),1/4(1,1,3)]", False,
                        f"{GRAM_91}, negative-definite", f"{GRAM_91}, not negative-definite"),
        ),
    ],
    ids=["neg_k_cube", "gram-matrix", "definiteness"],
)
def test_a_changed_evaluation_fails_its_fixture_check(monkeypatch, change, failed):
    # family 91's one fixture gives a cube check and a Gram check; only the
    # check of the changed value fails
    monkeypatch.setattr(towers, "evaluate", lambda spec: change(evaluate(spec)))
    assert [c for c in fixture_checks(91) if not c.passed] == [failed]
