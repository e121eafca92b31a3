"""Each oracle accepts the right answer and rejects a wrong one.

Run from the root of the repository:  python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

DATA = BENCH.parent / "src" / "wfano" / "data"
PUBLISHED = oracles.read_published((DATA / "families.txt").read_text(encoding="utf-8"))


def published_points(rec):
    return [oracles.terminal_form(r, qs) for _, count, r, qs, _ in rec["rows"] for _ in range(count)]


def test_published_list_has_95_systems():
    systems = oracles.published_systems(PUBLISHED)
    assert len(systems) == len(set(systems)) == 95
    assert all(sum(r["weights"]) == r["degree"] for r in PUBLISHED.values())


def test_hilbert_series_of_the_quartic_threefold():
    # X_4 in P^4: h^0(O(n)) = C(n+4, 4) - C(n, 4)
    assert oracles.hilbert_coefficients((1, 1, 1, 1), 12) == [
        comb(n + 4, 4) - comb(n, 4) for n in range(13)
    ]


@pytest.mark.parametrize("gimel", sorted(PUBLISHED))
def test_reid_accepts_published_basket_and_rejects_a_dropped_point(gimel):
    rec = PUBLISHED[gimel]
    points = published_points(rec)
    assert oracles.basket_is_consistent(rec["weights"], points)
    if points:
        assert not oracles.basket_is_consistent(rec["weights"], points[1:])


def test_kawamata_bound_rejects_an_oversized_basket():
    rec = PUBLISHED[1]  # smooth quartic: Reid holds with no points at all
    assert oracles.basket_is_consistent(rec["weights"], [])
    assert not oracles.basket_is_consistent(rec["weights"], [(13, 1)] * 2)


def test_ldl_test_on_small_matrices():
    F = Fraction
    assert oracles.ldl_negative_definite([[F(-1), F(0)], [F(0), F(-1)]])
    assert not oracles.ldl_negative_definite([[F(-1), F(2)], [F(2), F(-1)]])
    assert not oracles.ldl_negative_definite([[F(0), F(0)], [F(0), F(-1)]])
    assert oracles.ldl_negative_definite([[F(-2), F(1), F(0)], [F(1), F(-2), F(1)], [F(0), F(1), F(-2)]])


@pytest.fixture(scope="module")
def program():
    return workloads.Program()


def test_enumerate_check_rejects_an_extra_system(program):
    check = workloads.Enumerate(program, PUBLISHED, 0, DATA).check
    systems = oracles.published_systems(PUBLISHED)
    assert check([systems]) == []
    assert check([systems + [(41, 42, 43, 44)]])
    assert check([systems[::-1]])


def test_screen_check_rejects_an_extra_accepted_system(program):
    screen = workloads.Screen(program, PUBLISHED, 3, DATA)
    outputs = [screen.work(ws) for ws in screen.systems]
    assert screen.check(outputs) == []
    wrong = list(outputs)
    wrong[outputs.index(None)] = next(out for out in outputs if out is not None)
    assert screen.check(wrong)


def test_screen_check_rejects_a_dropped_basket_point(program):
    screen = workloads.Screen(program, PUBLISHED, 3, DATA)
    outputs = [screen.work(ws) for ws in screen.systems]
    i = next(i for i, out in enumerate(outputs) if out is not None and len(out.entries) > 1)
    outputs[i] = dataclasses.replace(outputs[i], entries=outputs[i].entries[1:])
    assert screen.check(outputs)


@pytest.fixture(scope="module")
def tower_outputs(program):
    towers = workloads.Towers(program, PUBLISHED, 5, DATA)
    return towers, [towers.work(text) for text in towers.items()]


def test_towers_check_accepts_program_outputs(tower_outputs):
    towers, outputs = tower_outputs
    assert towers.check(outputs) == []


def test_gram_oracle_rejects_a_perturbed_entry(tower_outputs):
    towers, outputs = tower_outputs
    (_, data), ev = towers.variants[0], outputs[0]
    gram = [list(row) for row in ev.gram_matrix]
    args = (data["matrix"], data["restricted"], data["classes"]["D"], data["weights"], data["centers"])
    assert oracles.gram_satisfies(gram, *args)
    gram[0][1] += Fraction(1, 7)
    gram[1][0] += Fraction(1, 7)
    assert not oracles.gram_satisfies(gram, *args)
    wrong = [dataclasses.replace(ev, gram_matrix=tuple(map(tuple, gram)))] + outputs[1:]
    assert towers.check(wrong)


def test_towers_check_rejects_a_flipped_verdict(tower_outputs):
    towers, outputs = tower_outputs
    for verdict in (True, False):
        i = next(i for i, ev in enumerate(outputs) if ev.negative_definite is verdict)
        wrong = list(outputs)
        wrong[i] = dataclasses.replace(outputs[i], negative_definite=not verdict)
        assert towers.check(wrong)


def test_towers_check_rejects_a_wrong_cube(tower_outputs):
    towers, outputs = tower_outputs
    wrong = [dataclasses.replace(outputs[0], neg_k_cube=outputs[0].neg_k_cube + 1)] + outputs[1:]
    assert towers.check(wrong)
