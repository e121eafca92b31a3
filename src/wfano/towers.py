"""Line-oriented description files for blow-up towers and Gram problems.

A `.tower` file encodes one chain of blow ups over a family (or over
explicit weights), optional named divisor classes in the pullback basis,
triple products to evaluate, and an optional Gram block:

    # family 25, full three-center chain
    family 25
    center 7 3
    center 4 1 track e1=1/4
    center 3 1 track e1=1/3 e2=2/3
    class S 1 -1/7 -1/4 -1/3
    class T 0 1 -1/4 -1/3
    triple S S S
    surface S
    curves C L
    restrict S = C + L
    restrict T = L

`center r a` is the blow up of a 1/r(1,a,r-a) point, the first one of a
type that the header's one walk finds on the base's general member (a
`weights` base must be an admissible family); `track eK=m` gives the
multiplicity m of the stage-K exceptional divisor along this center.  A
track is checked as it is read (K an earlier stage, listed once, m > 0
with a denominator dividing r) and then dropped: every number evaluated
here depends only on the base and the center types.
`class NAME k e1 ... em` gives coefficients of H and of each pullback
exceptional (one per center; fractions allowed).  The Gram block names a
surface class, the base curves on it, and how each restricted class
decomposes into those curves (`restrict T = 5L` means T.D = 5L).

Every field is one whitespace-separated token; a `restrict` term is one
token `[p/q]NAME`, and terms are joined by `+` tokens.  Parse failures
raise PositionedError with a 1-based line and column.

The package ships the `.tower` files of `FIXTURES` under ``data/towers/``,
each with the values its evaluation must reproduce, computed once with
this package and frozen: the anticanonical cube on top of the chain and,
for a Gram fixture, the solved (negative definite) intersection matrix of
the base curves.  `fixture_checks` compares them as `FamilyCheck`s, which
`wfano verify` prints beside those of `verify_family`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from ._linescan import RATIONAL, LineCursor, PositionedError, content_lines, rational
from .blowup import (
    DivisorClass,
    GramProblem,
    Restriction,
    Tower,
    is_negative_definite,
    neg_k_cube,
    solve_gram,
    triple,
)
from .classifier import FamilyCheck, UnknownGimelError, compare, family, load_families
from .core import InputError, NonTerminalError, QuotientSingularityType, Weights
from .singularities import singular_points


# ASCII only: without re.ASCII, \d and \w match any decimal digit or letter
_FRACTION_RE = re.compile(rf"(-?){RATIONAL}", re.ASCII)
_TRACK_RE = re.compile(rf"e(\d+)={RATIONAL}", re.ASCII)
_NAME_RE = re.compile(r"[A-Za-z]\w*", re.ASCII)
_TERM_RE = re.compile(rf"(?:{RATIONAL})?([A-Za-z]\w*)", re.ASCII)
_TRACK_TAG, _EQUALS, _PLUS = re.compile("track"), re.compile("="), re.compile(r"\+")


class TowerSpec(NamedTuple):
    """A parsed description: the tower, named classes, requested triples,
    and the optional Gram problem."""

    tower: Tower
    classes: dict[str, DivisorClass]
    triples: tuple[tuple[str, str, str], ...]
    gram: GramProblem | None


# a dataclass, not a tuple: bench/test_oracles.py rebuilds one with
# `dataclasses.replace`
@dataclass(frozen=True)
class TowerEvaluation:
    neg_k_cube: Fraction
    triples: tuple[tuple[tuple[str, str, str], Fraction], ...]
    gram_matrix: tuple[tuple[Fraction, ...], ...] | None
    negative_definite: bool | None


def definiteness(negative_definite: bool) -> str:
    """A Gram matrix's verdict as `eval-tower` and `verify` print it."""
    return ("" if negative_definite else "not ") + "negative-definite"


def _fraction(cur: LineCursor, what: str) -> Fraction:
    sign, num, den = cur.next_match(_FRACTION_RE, what).groups()
    return rational(sign + num, den)


def _defined_class(cur: LineCursor, classes: dict[str, DivisorClass]) -> str:
    name, col = cur.next_token("class name")
    if name not in classes:
        cur.fail(f"defined class name (got {name})", col)
    return name


def parse_tower_text(source: str) -> TowerSpec:
    base: Weights | None = None
    centers: list[QuotientSingularityType] = []
    classes: dict[str, DivisorClass] = {}
    triples: list[tuple[str, str, str]] = []
    surface_name: str | None = None
    gram_line: int | None = None  # the first surface/curves/restrict line
    curve_names: list[str] = []
    restrictions: dict[str, Restriction] = {}  # by the restricted class's name

    for cur, key, kcol in content_lines(source):
        if key in ("family", "weights"):
            if base is not None:
                cur.fail("a single family/weights header", kcol)
            col = cur.next_col()
            if key == "family":
                gimel = cur.next_int("family number")
                try:
                    base = family(gimel).weights
                except UnknownGimelError as exc:
                    cur.fail(f"a known family ({exc})", col)
            else:
                base = cur.next_weights()
            try:  # memoized: a family's weights were walked when the dataset loaded
                base_types = {t for c, t, _ in singular_points(base) if c}
            except NonTerminalError as exc:
                cur.fail(f"admissible weights ({exc})", col)
            cur.expect_end()
            continue

        if base is None:
            cur.fail("family or weights header first", kcol)

        if key == "center":
            if classes:
                cur.fail("centers before classes", kcol)
            rcol = cur.next_col()
            r, a = cur.next_int("index r"), cur.next_int("weight a")
            try:
                center = QuotientSingularityType(r, a)
            except ValueError as exc:
                cur.fail(f"valid center ({exc})", rcol)
            if not centers and center not in base_types:
                cur.fail(f"a first center at a point of the general member of {base}", rcol)
            stage = len(centers) + 1
            tracked: set[int] = set()
            if not cur.at_end():
                cur.next_match(_TRACK_TAG, "track")
                while not tracked or not cur.at_end():  # at least one term
                    t = cur.next_match(_TRACK_RE, "tracked multiplicity like e1=1/4")
                    k, m = int(t[1]), rational(t[2], t[3])
                    if not 1 <= k < stage:
                        cur.fail(f"valid center (center at stage {stage} tracks stage {k})", rcol)
                    if k in tracked:
                        cur.fail(f"valid center (stage {k} tracked twice)", rcol)
                    if m <= 0 or (m * r).denominator != 1:
                        cur.fail(f"valid center (multiplicity {m} invalid at a 1/{r} point)", rcol)
                    tracked.add(k)
            centers.append(center)
            continue

        if key == "class":
            m = cur.next_match(_NAME_RE, "class name")
            name = m.group()
            if name in classes:
                cur.fail(f"fresh class name ({name} already defined)", m.start() + 1)
            k = _fraction(cur, "coefficient of H")
            es = [_fraction(cur, "exceptional coefficient") for _ in centers]
            cur.expect_end()
            classes[name] = DivisorClass(k, tuple(es))
            continue

        if key == "triple":
            a, b, c = (_defined_class(cur, classes) for _ in range(3))
            cur.expect_end()
            triples.append((a, b, c))
            continue

        if key in ("surface", "curves", "restrict") and gram_line is None:
            gram_line = cur.lineno

        if key == "surface":
            name = _defined_class(cur, classes)
            if surface_name is not None:
                cur.fail("a single surface line", kcol)
            surface_name = name
            cur.expect_end()
            continue

        if key == "curves":
            if curve_names:
                cur.fail("a single curves line", kcol)
            while not cur.at_end():
                m = cur.next_match(_NAME_RE, "fresh curve name")
                if m.group() in curve_names:
                    cur.fail("fresh curve name", m.start() + 1)
                curve_names.append(m.group())
            if not curve_names:
                cur.fail("at least one curve name")
            continue

        if key == "restrict":
            if not curve_names:
                cur.fail("curves line before restrict", kcol)
            col = cur.next_col()
            name = _defined_class(cur, classes)
            if name in restrictions:
                cur.fail(f"class {name} restricted once only", col)
            cur.next_match(_EQUALS, "=")
            if cur.at_end():
                cur.fail("curve decomposition")
            coeffs = {c: Fraction(0) for c in curve_names}
            while True:
                term, col = cur.next_token("term like 5L or C")
                m = _TERM_RE.fullmatch(term)
                if not m or m[3] not in coeffs:
                    cur.fail(f"term like 5L or C (got {term!r})", col)
                num, den, curve = m.groups()
                coeffs[curve] += rational(num, den) if num else 1
                if cur.at_end():
                    break
                cur.next_match(_PLUS, "+")
            restrictions[name] = Restriction(classes[name], tuple(coeffs[c] for c in curve_names))
            continue

        cur.fail(
            "one of family/weights/center/class/triple/surface/curves/restrict",
            kcol,
        )

    if base is None:
        raise PositionedError(1, 1, "family or weights header")
    tower = Tower(base, tuple(centers))

    gram = None
    if gram_line is not None:
        if surface_name is None:
            raise PositionedError(gram_line, 1, "surface line for the Gram block")
        if not restrictions:
            raise PositionedError(gram_line, 1, "restrict lines for the Gram block")
        gram = GramProblem(
            tower, classes[surface_name], tuple(curve_names), tuple(restrictions.values())
        )
    return TowerSpec(tower, classes, tuple(triples), gram)


def evaluate(spec: TowerSpec) -> TowerEvaluation:
    """neg_k_cube, the requested triple products, and the solved Gram
    matrix with its definiteness verdict."""
    trip_values = tuple(
        (names, triple(spec.tower, *(spec.classes[n] for n in names)))
        for names in spec.triples
    )
    matrix = None
    definite = None
    if spec.gram is not None:
        matrix = solve_gram(spec.gram)
        definite = is_negative_definite(matrix)
    return TowerEvaluation(neg_k_cube(spec.tower), trip_values, matrix, definite)


# ---------------------------------------------------------------------------
# the shipped fixtures

F = Fraction


class TowerFixture(NamedTuple):
    name: str
    gimel: int
    neg_k_cube: Fraction
    gram: tuple[tuple[Fraction, ...], ...] | None = None


def _m(a: Fraction, b: Fraction, c: Fraction):
    # 2x2 symmetric matrix from (first diagonal, second diagonal, off-diagonal)
    return ((a, c), (c, b))


FIXTURES: tuple[TowerFixture, ...] = (
    TowerFixture("family13-chain", 13, F(-3, 10)),
    TowerFixture("family13-gram", 13, F(-1, 6), _m(F(-5, 6), F(-4, 3), F(1))),
    TowerFixture("family13-gram-long", 13, F(-1, 3), _m(F(-5, 6), F(-3, 2), F(1))),
    TowerFixture("family25-chain", 25, F(-1, 14)),
    TowerFixture("family25-gram", 25, F(-1, 12), _m(F(-7, 12), F(-5, 6), F(2, 3))),
    TowerFixture("family32-gram", 32, F(-1, 12), _m(F(-7, 24), F(-5, 8), F(3, 8))),
    TowerFixture("family65-gram", 65, F(-43, 90),
                 _m(F(-199, 450), F(-32, 225), F(22, 225))),
    TowerFixture("family91-gram", 91, F(-7, 90), _m(F(-1, 6), F(-2, 9), F(0))),
)


def load_fixture(fixture: TowerFixture) -> TowerSpec:
    path = resources.files("wfano").joinpath(f"data/towers/{fixture.name}.tower")
    load_families()  # so that the handler below sees only this file's errors
    try:
        return parse_tower_text(path.read_text(encoding="utf-8-sig"))
    except PositionedError as exc:
        # a packaged file that does not fit the family the dataset gives it
        raise InputError(f"packaged {fixture.name}.tower:{exc}") from exc


def _matrix_text(matrix) -> str:
    return " / ".join(" ".join(str(v) for v in row) for row in matrix)


def fixture_checks(gimel: int) -> tuple[FamilyCheck, ...]:
    """Every fixture of a family evaluated against its frozen values: the
    cube on top of the chain and, for a Gram fixture, the matrix and its
    negative definiteness."""
    checks = []
    for f in (f for f in FIXTURES if f.gimel == gimel):
        spec = load_fixture(f)
        ev = evaluate(spec)
        types = ",".join(str(t) for t in spec.tower.centers)
        checks.append(
            compare(f"neg_k_cube tower [{types}] = {f.neg_k_cube}", f.neg_k_cube, ev.neg_k_cube)
        )
        if f.gram is not None:
            # the texts are equal iff the matrices are and the solved one is
            # negative definite
            checks.append(
                compare(
                    f"gram tower [{types}]",
                    f"{_matrix_text(f.gram)}, {definiteness(True)}",
                    f"{_matrix_text(ev.gram_matrix)}, {definiteness(ev.negative_definite)}",
                )
            )
    return tuple(checks)
