"""The classification dataset and the Halphen pencil counting rules.

The dataset is a small line-oriented text file shipped with the package
(`data/families.txt`; the WFANO_DATA environment variable names another
file).  One record per family, a `FamilyRecord` whose fields are named
after the keywords and come in the order of its lines: the weight system,
its degree, exact -K^3, two opaque columns ('invariant' and 'ell', stored
verbatim), the pencil count, and the `rows`, one `row` line per singular
locus with its verbatim local type and optional annotation.  A row's type
is normalized to 1/r(1,a,r-a) once, as the row is read; one that is not
terminal is a positioned syntax error:

    family 13
    weights 1 2 3 5
    degree 11
    kcube 11/30
    invariant F_2
    ell 1
    pencils 1
    row P4 1x 1/5(1,2,3) QI xw^2,6,11
    row P3 1x 1/3(1,1,2) QI *t^2w,8,11
    row P2 1x 1/2(1,1,1) BC 1 0

Annotations: `BC b c` records the auxiliary surface class -bK+cE attached
to a blow up whose anticanonical cube goes negative, `QI`/`EI` record
untwisting involution data verbatim, and an absent annotation means none
is needed.  Each is one `Annotation(tag, value)`, its value the pair
(b, c) or the text.  Every field is one token, a `QI`/`EI` text included.

Only `load_families` and `family` read the dataset, and loading rejects
it whole when a record's weights are not an admissible family (see
`load_families`); `parse_table` only parses.  The counting rules
are pure functions of a weight system or a record: weight combinatorics
plus two embedded membership lists.  `verify_family` cross-checks every
rule against the record, and the record against recomputation.
"""
from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from ._linescan import RATIONAL, LineCursor, PositionedError, content_lines, rational
from .core import InputError, NonTerminalError, Weights, anticanonical_cube, normalize_singularity
from .singularities import Annotation, TableRow, basket, singular_points
from .singularities import stratum_points, type_counts


class UnknownGimelError(InputError):
    pass


# the one pencil count that is not a number; the parser returns this
# object, so `count is INFINITE` holds
INFINITE = "infinite"


class FamilyRecord(NamedTuple):
    # the one field list: the parser, the serializer and the CLI read it
    gimel: int
    weights: Weights
    degree: int
    kcube: Fraction
    invariant: str
    ell: str
    pencils: int | str
    rows: tuple[TableRow, ...]


class PencilDescriptor(NamedTuple):
    kind: str  # as `show` prints it: "principal", "type IV", ...
    generator_text: str
    n: int  # the pencil lies in |-nK|


# families with a second pencil cut by lambda*x^a2 + mu*z (see
# `type_iv_presentation` for the presentation of the defining equation)
TYPE_IV_GIMELS = frozenset(
    {45, 48, 55, 57, 58, 66, 69, 74, 76, 79, 80, 81, 84, 86, 91, 93, 95}
)
TYPE_V_GIMEL = 60


# ---------------------------------------------------------------------------
# dataset parsing


_LOCUS_RE = re.compile(r"P[1-4]|P1P[2-4]|P2P[34]|P3P4")  # edges ascend
# numbers are ASCII digits: without re.ASCII, \d matches any decimal digit
_TYPE_RE = re.compile(r"1/(\d+)\((\d+),(\d+),(\d+)\)", re.ASCII)
_COUNT_RE = re.compile(r"(0*[1-9]\d*)x", re.ASCII)  # a locus carries at least one point
_KCUBE_RE = re.compile(RATIONAL, re.ASCII)
_PENCILS_RE = re.compile(rf"{INFINITE}|\d+", re.ASCII)


def _parse_row(cur: LineCursor, earlier: list[TableRow]) -> TableRow:
    m = cur.next_match(_LOCUS_RE, "locus label like P4 or P2P3")
    locus = m.group()
    if any(row.locus == locus for row in earlier):
        cur.fail(f"locus {locus} only once per family", m.start() + 1)
    count = int(cur.next_match(_COUNT_RE, "count like 3x").group(1))
    m = cur.next_match(_TYPE_RE, "type like 1/5(1,2,3)")
    index, *local = map(int, m.groups())
    try:
        sing_type = normalize_singularity(index, *local)
    except ValueError as exc:
        cur.fail(f"terminal type ({exc})", m.start() + 1)
    annotation = None
    if not cur.at_end():
        tag, col = cur.next_token("annotation tag")
        if tag == "BC":
            annotation = Annotation(tag, (cur.next_int("integer b"), cur.next_int("integer c")))
        elif tag in ("QI", "EI"):
            annotation = Annotation(tag, cur.next_token("involution text")[0])
        else:
            cur.fail("annotation BC/QI/EI", col)
    return TableRow(locus, count, tuple(local), sing_type, annotation)


_SCALARS = FamilyRecord._fields[1:-1]  # the one-line keywords, in order


def parse_table(source: str) -> list[FamilyRecord]:
    """Parse dataset text into records, gimel-sorted.

    Raises PositionedError, an InputError with a 1-based line/column, on
    malformed input: among others a weight system that is not positive and
    ascending, a row type that is not a terminal 1/r(1,a,r-a), a locus
    listed twice in one record, a family number that appears twice (at
    its second `family` line) and a text with no record at all (at 1:1).
    """
    records: dict[int, FamilyRecord] = {}
    current: dict | None = None

    def finish(rec):
        for field in _SCALARS:
            if field not in rec:
                raise PositionedError(rec["line"], 1, f"{field} for family {rec['gimel']}")
        records[rec["gimel"]] = FamilyRecord(
            rec["gimel"], *(rec[f] for f in _SCALARS), tuple(rec["rows"])
        )

    for cur, key, col in content_lines(source):
        if key == "family":
            if current is not None:
                finish(current)
            gcol = cur.next_col()
            gimel = cur.next_int("family number")
            if gimel in records:
                cur.fail(f"new family number (family {gimel} appears twice)", gcol)
            current = {"gimel": gimel, "line": cur.lineno, "rows": []}
            continue
        if current is None:
            cur.fail("family", col)
        if key == "row":
            current["rows"].append(_parse_row(cur, current["rows"]))
            continue
        if key not in _SCALARS:
            cur.fail("one of family/row/" + "/".join(_SCALARS), col)
        if key in current:
            cur.fail(f"{key} only once per family", col)
        if key == "weights":
            current[key] = cur.next_weights()
        elif key == "degree":
            current[key] = cur.next_int("integer")
        elif key == "kcube":
            current[key] = rational(*cur.next_match(_KCUBE_RE, "fraction p/q").groups())
        elif key == "pencils":
            tok = cur.next_match(_PENCILS_RE, "count or 'infinite'").group()
            current[key] = INFINITE if tok == INFINITE else int(tok)
        else:  # invariant, ell: opaque tokens
            current[key] = cur.next_token("value")[0]

    if current is not None:
        finish(current)
    if not records:
        raise PositionedError(1, 1, "family record")
    return [records[g] for g in sorted(records)]


def serialize_table(records) -> str:
    """Canonical text form; parse(serialize(parse(s))) == parse(s)."""
    chunks = []
    for rec in sorted(records, key=lambda r: r.gimel):
        lines = [f"family {rec.gimel}", "weights " + " ".join(str(a) for a in rec.weights)]
        lines += [f"{f} {getattr(rec, f)}" for f in _SCALARS[1:]]
        lines += [f"row {row}" for row in rec.rows]
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


@lru_cache(maxsize=None)
def _load(path: str | None) -> tuple[FamilyRecord, ...]:
    file = resources.files("wfano").joinpath("data/families.txt") if path is None else Path(path)
    records = tuple(parse_table(file.read_text(encoding="utf-8-sig")))  # skips a byte-order mark
    for rec in records:
        try:
            singular_points(rec.weights)
        except NonTerminalError as exc:
            raise InputError(f"family {rec.gimel}: {exc}") from exc
    return records


def load_families() -> tuple[FamilyRecord, ...]:
    """The dataset records, cached per file: the file the WFANO_DATA
    environment variable names, or else the packaged one.  Each record's
    weights are walked once, by the memoized `singular_points` that
    `basket` and a `.tower` `family` header read afterwards, so neither
    walks them again; the first record that is not an admissible family
    rejects the dataset with an InputError, `family N: ` and the walk's
    reason: a vertex with no eliminator, a stratum curve inside the
    general member, or a quotient point that is not terminal."""
    return _load(os.environ.get("WFANO_DATA") or None)


def family(gimel: int) -> FamilyRecord:
    for rec in load_families():
        if rec.gimel == gimel:
            return rec
    raise UnknownGimelError(f"no family {gimel} in the dataset")


# ---------------------------------------------------------------------------
# counting rules


def type_iv_presentation(w: Weights) -> tuple[int, int] | str:
    """The presentation (j, m) with a1 + a3 + a4 = m*a_j that cuts the
    second pencil lambda*x^a2 + mu*z, or the reason there is none.

    The second weight is left out of the sum.  Candidates are the indices
    1, 3 and 4 whose weight differs from a2 (a weight equal to a2 would make
    the presentation collide with that variable).  When both a high index
    (3 or 4) and index 1 divide the sum, the high index wins -- the
    defining equation is then organized by the bigger variable.  The
    reasons, in the order they are tested: a tie between indices 3 and 4,
    which admits no canonical choice; a1 = 1; a1 = a2; no dividing index.
    """
    a = {1: w.a1, 3: w.a3, 4: w.a4}
    total = sum(a.values())
    cand = [j for j in a if a[j] != w.a2 and total % a[j] == 0]
    high = [j for j in cand if j >= 3]
    if len(high) > 1:
        return f"indices {high} both divide {total} for {w}"
    if w.a1 == 1:
        return "a1 = 1"
    if w.a1 == w.a2:
        return "a1 = a2"
    if not cand:
        return f"no index divides {total}"
    j = cand[-1]  # a high index wins over index 1
    return j, total // a[j]


def is_type_iii(w: Weights) -> bool:
    return w.a1 == w.a2 != 1 and w.a3 == w.a1 + 1


def halphen_pencils(rec: FamilyRecord) -> tuple[PencilDescriptor, ...]:
    """The Halphen pencils on the general member; the empty tuple means
    infinitely many.

    Infinitely many exactly when a2 = 1 (the full anticanonical system is
    then at least a net, and every pencil inside it qualifies); otherwise
    the principal pencil |-a1 K| plus, for the embedded membership lists,
    one extra pencil -- or the distinguished-point pencils for the three
    a1 = a2 families.  A listed type-IV family whose weights have no
    second-pencil presentation gets the principal pencil only, which the
    "second pencil presentation" check of `verify_family` reports.
    """
    gimel, w = rec.gimel, rec.weights
    if w.a2 == 1:
        return ()
    if is_type_iii(w):
        # the distinguished 1/a(1,1,a-1) points: the P1P2 line meets the member in d/a
        r = stratum_points(w.ambient, w.degree, 1, 2)
        return (
            PencilDescriptor(
                "type III distinguished",
                f"lambda*x^{w.a1} + mu*f_{w.a1}(x,y,z,t,w)",
                w.a1,
            ),
            *(
                PencilDescriptor(
                    "type III point",
                    f"surfaces of |-{w.a1}K| through the distinguished point #{i}",
                    w.a1,
                )
                for i in range(1, r + 1)
            ),
        )
    principal = PencilDescriptor(
        "principal",
        "lambda*x + mu*y" if w.a1 == 1 else f"lambda*x^{w.a1} + mu*y",
        w.a1,
    )
    if gimel == TYPE_V_GIMEL:
        return principal, PencilDescriptor("type V", "lambda*x^6 + mu*f_6(x,y,z,t)", 6)
    if gimel in TYPE_IV_GIMELS and isinstance(type_iv_presentation(w), tuple):
        return principal, PencilDescriptor("type IV", f"lambda*x^{w.a2} + mu*z", w.a2)
    return (principal,)


def derived_type_iv_set(records) -> set[int]:
    """Cross-derivation of the two-pencil membership list from the record
    data: a two-pencil count, not being the type-V family, and a
    second-pencil presentation."""
    return {
        rec.gimel for rec in records
        if rec.pencils == 2 and rec.gimel != TYPE_V_GIMEL
        and isinstance(type_iv_presentation(rec.weights), tuple)
    }


# ---------------------------------------------------------------------------
# cross-checks


class FamilyCheck(NamedTuple):
    name: str
    passed: bool
    expected: str
    actual: str


def compare(name: str, expected, actual) -> FamilyCheck:
    """The check of a recomputed value: it passes iff the two are equal,
    and prints both with `str`."""
    return FamilyCheck(name, expected == actual, str(expected), str(actual))


def verify_family(rec: FamilyRecord) -> tuple[FamilyCheck, ...]:
    """Recompute everything recomputable about one family and compare with
    its record: the anticanonical cube, the degree, the singular loci
    (counts and normalized types), the presence rule for BC annotations,
    the pencil-count rule, and for the three type-III families the count
    against the distinguished points the record's P1P2 rows list."""
    w = rec.weights
    kcube = anticanonical_cube(w)
    # every count is positive and `str` of a type is injective, so the two
    # texts are equal iff the two type counts are
    fmt = lambda d: "; ".join(f"{c} x {t}" for t, c in sorted(d.items())) or "smooth"
    checks = [
        compare("kcube", rec.kcube, kcube),
        compare("degree", rec.degree, w.degree),
        compare("basket types", fmt(type_counts(rec.rows)), fmt(type_counts(basket(w)))),
    ]

    for row in rec.rows:
        b3 = kcube - row.sing_type.discrepancy_cube_drop
        has_bc = row.annotation is not None and row.annotation.tag == "BC"
        checks.append(
            FamilyCheck(
                f"bc presence {row.locus} {row.type_text()}",
                has_bc == (b3 < 0),
                "BC iff negative" if b3 < 0 else "no BC iff non-negative",
                f"single-blowup kcube {b3}, annotation "
                + ("BC" if has_bc else "absent"),
            )
        )

    want = rec.pencils
    checks.append(compare("pencil count rule", want, len(halphen_pencils(rec)) or INFINITE))
    if is_type_iii(w):
        # the distinguished points the record lists, against its count
        r = sum(row.count for row in rec.rows if row.locus == "P1P2")
        checks.append(
            FamilyCheck(
                "distinguished point count",
                want == 1 + r,
                str(want),
                f"1 + {r}",
            )
        )
    if rec.gimel in TYPE_IV_GIMELS:
        res = type_iv_presentation(w)
        passed = isinstance(res, tuple)
        actual = f"j={res[0]}, m={res[1]}" if passed else res
        expected = "index j with a1+a3+a4 = m*a_j"
        checks.append(FamilyCheck("second pencil presentation", passed, expected, actual))
    return tuple(checks)
