"""Frozen expectations for the tower description files shipped with the
package.

Each fixture names a `.tower` file under ``data/towers/`` and records the
values its evaluation must reproduce: the anticanonical cube on top of
the chain and, for Gram fixtures, the solved intersection matrix of the
base curves (all of which are negative definite).  The verify command
re-evaluates every fixture of a family; the numbers here were computed
once with this package and frozen, and `fixture_checks` compares them
as `FamilyCheck`s.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .classifier import FamilyCheck
from .towers import TowerEvaluation, TowerSpec, evaluate, parse_tower_text

F = Fraction


@dataclass(frozen=True)
class TowerFixture:
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
    text = (
        resources.files("wfano")
        .joinpath(f"data/towers/{fixture.name}.tower")
        .read_text()
    )
    return parse_tower_text(text)


def evaluate_fixture(fixture: TowerFixture) -> TowerEvaluation:
    return evaluate(load_fixture(fixture))


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
        types = ",".join(str(c.sing_type) for c in spec.tower.centers)
        checks.append(
            FamilyCheck(
                f"neg_k_cube tower [{types}] = {f.neg_k_cube}",
                ev.neg_k_cube == f.neg_k_cube,
                str(f.neg_k_cube),
                str(ev.neg_k_cube),
            )
        )
        if f.gram is not None:
            verdict = "negative-definite" if ev.negative_definite else "not negative-definite"
            checks.append(
                FamilyCheck(
                    f"gram tower [{types}]",
                    ev.gram_matrix == f.gram and ev.negative_definite is True,
                    _matrix_text(f.gram) + ", negative-definite",
                    f"{_matrix_text(ev.gram_matrix)}, {verdict}",
                )
            )
    return tuple(checks)
