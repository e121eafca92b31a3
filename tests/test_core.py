import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

import wfano
from wfano._linescan import PositionedError
from wfano.blowup import (
    DivisorClass, GramProblem, Restriction, Tower, is_negative_definite, solve_gram,
)
from wfano.classifier import UnknownGimelError, family, load_families, parse_table, serialize_table
from wfano.core import (
    InputError,
    NonTerminalError,
    QuotientSingularityType,
    Weights,
    anticanonical_cube,
    extend_reach,
    is_representable,
    normalize_singularity,
)


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(2, 1, 3, 4)  # not ascending
    with pytest.raises(ValueError):
        Weights(0, 1, 2, 3)
    with pytest.raises(ValueError, match="positive integers"):
        Weights(True, True, True, True)  # a bool is an int, but no weight


def test_replace_and_make_check_like_the_constructor():
    # a namedtuple's `_make` and `_replace` build through `tuple.__new__`,
    # around the checks in a subclass's `__new__`, unless it routes them back
    tower = Tower(Weights(1, 2, 3, 5), (QuotientSingularityType(2, 1),))
    cases = [
        (Weights(1, 2, 3, 5), {"a1": 0}),
        (QuotientSingularityType(5, 2), {"a": 3}),
        (GramProblem(tower, DivisorClass(1, (0,)), ("C",)), {"surface": DivisorClass(1, ())}),
    ]
    for value, change in cases:
        cls = type(value)
        fields = [change.get(name, x) for name, x in zip(cls._fields, value)]
        with pytest.raises(ValueError) as expected:
            cls(*fields)
        for build in (lambda: value._replace(**change), lambda: cls._make(fields)):
            with pytest.raises(ValueError) as e:
                build()
            assert str(e.value) == str(expected.value)
        assert type(cls._make(value)) is cls and cls._make(value) == value


def test_one_class_of_bad_input(tmp_path, monkeypatch):
    # the command line exits 2 on exactly the InputErrors; every other error is a bug
    record = serialize_table([family(13)])
    tower = Tower(Weights(1, 2, 3, 5), (QuotientSingularityType(2, 1),))
    s = DivisorClass(1, (Fraction(-1, 2),))
    one = Restriction(s, (Fraction(1), Fraction(1)))

    def gram(*restrictions):
        return lambda: solve_gram(GramProblem(tower, s, ("C", "L"), restrictions))

    inadmissible = tmp_path / "data.txt"
    inadmissible.write_text(record.replace("weights 1 2 3 5", "weights 3 4 4 5"))
    monkeypatch.setenv("WFANO_DATA", str(inadmissible))
    bad_input = [
        (lambda: parse_table(record + record), "family 13 appears twice"),
        (lambda: parse_table("# no record\n"), "1:1: expected family record"),
        (load_families, "family 13: 1/5(3,4,4) admits no terminal presentation"),
        (gram(one), "2 of 3 Gram entries stay free"),
        (gram(one, Restriction(s, (Fraction(2), Fraction(2)))),
         "decompositions contradict the triple products"),
    ]
    for call, message in bad_input:
        with pytest.raises(InputError, match=re.escape(message)):
            call()
    for cls in (PositionedError, UnknownGimelError):
        assert issubclass(cls, InputError), cls
    assert not issubclass(UnknownGimelError, KeyError)

    bugs = [
        (ValueError, lambda: is_negative_definite(((Fraction(-1), Fraction(0)),)), "not square"),
        (NonTerminalError, lambda: normalize_singularity(5, 1, 1, 1), "no terminal presentation"),
    ]
    for error, call, message in bugs:
        with pytest.raises(error, match=message) as e:
            call()
        assert not isinstance(e.value, InputError), e.value


def test_weights_str_and_degree():
    w = Weights(1, 2, 3, 5)
    assert str(w) == "P(1,1,2,3,5)"
    assert w.degree == 11
    assert w.ambient == (1, 1, 2, 3, 5)


def test_anticanonical_cube_values():
    assert anticanonical_cube(Weights(1, 1, 1, 1)) == 4
    assert anticanonical_cube(Weights(1, 2, 3, 5)) == Fraction(11, 30)
    assert anticanonical_cube(Weights(2, 5, 9, 11)) == Fraction(3, 110)
    assert anticanonical_cube(Weights(5, 6, 22, 33)) == Fraction(1, 330)


def test_is_representable():
    assert is_representable(0, (2, 3))
    assert is_representable(7, (2, 3))
    assert not is_representable(1, (2, 3))
    assert not is_representable(5, (2, 4))


def test_is_representable_rejects_weight_below_one():
    with pytest.raises(ValueError, match="weight must be positive, got -2"):
        is_representable(3, (-2,))
    # unchecked, a weight of 0 never reaches the cap: run it in a child, so
    # that a hang fails the test instead of stopping the suite
    code = (
        "from wfano.core import is_representable\n"
        "try:\n"
        "    is_representable(3, (0,))\n"
        "except ValueError as exc:\n"
        "    raise SystemExit(str(exc) != 'weight must be positive, got 0')\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(wfano.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert result.returncode == 0


def coin_change(weights, top):
    """reachable[k] for 0 <= k <= top: is k a sum of the weights?  The
    textbook table, one target at a time, with no bit tricks."""
    reachable = [True] + [False] * top
    for k in range(1, top + 1):
        reachable[k] = any(w <= k and reachable[k - w] for w in weights)
    return reachable


weight_lists = st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5)


@given(weight_lists)
@example([6, 10, 6, 15])
@example([60, 60])
def test_is_representable_matches_coin_change(weights):
    reachable = coin_change(weights, 400)
    for target in range(-60, 401):
        expected = target >= 0 and reachable[target]
        assert is_representable(target, tuple(weights)) == expected, target


@given(weight_lists, st.integers(min_value=0, max_value=400))
@example([6, 10, 6, 15], 400)
def test_extended_masks_are_exact_up_to_the_cap(weights, cap):
    # one weight at a time, in the drawn order and with repeats, as the
    # quasismoothness criterion grows a subset's mask from its parent's
    mask = 1
    for w in weights:
        mask = extend_reach(mask, w, cap)
    reachable = coin_change(weights, cap)
    assert [bool(mask >> k & 1) for k in range(cap + 1)] == reachable


def test_normalize_examples():
    assert normalize_singularity(5, 1, 3, 2) == QuotientSingularityType(5, 2)
    assert normalize_singularity(3, 1, 2, 1) == QuotientSingularityType(3, 1)
    # a unit multiple of (1,2,9) at r=11
    assert normalize_singularity(11, 3, 6, 27 % 11) == QuotientSingularityType(11, 2)
    assert str(QuotientSingularityType(7, 3)) == "1/7(1,3,4)"


def test_normalize_rejects_non_terminal():
    with pytest.raises(NonTerminalError):
        normalize_singularity(4, 1, 1, 2)
    with pytest.raises(NonTerminalError):
        normalize_singularity(4, 2, 1, 1)
    with pytest.raises(NonTerminalError):
        normalize_singularity(9, 1, 2, 3)


def normalize_by_units(r, q1, q2, q3):
    """The unit search that `normalize_singularity` shortens: try every
    unit of Z/r.  Returns the type, or the NonTerminalError message."""
    qs = [q % r for q in (q1, q2, q3)]
    if any(q == 0 for q in qs):
        return f"1/{r}({q1},{q2},{q3}) has a weight divisible by {r}"
    if any(gcd(q, r) != 1 for q in qs):
        return f"1/{r}({q1},{q2},{q3}) is not isolated-terminal"
    return unit_search(r, *sorted(qs)) or f"1/{r}({q1},{q2},{q3}) admits no terminal presentation"


@lru_cache(maxsize=None)
def unit_search(r, *qs):
    for u in range(1, r):
        if gcd(u, r) == 1:
            s = sorted(q * u % r for q in qs)
            if s[0] == 1 and s[1] + s[2] == r:
                return QuotientSingularityType(r, min(s[1], s[2]))
    return None


def test_normalize_tries_only_the_inverses():
    # every unit that gives (1, a, r-a) takes some weight to 1, so the
    # inverses of the three weights are all the units worth trying
    for r in range(2, 31):
        for q1 in range(r):
            for q2 in range(r):
                for q3 in range(r):
                    expected = normalize_by_units(r, q1, q2, q3)
                    try:
                        got = normalize_singularity(r, q1, q2, q3)
                    except NonTerminalError as exc:
                        got = str(exc)
                    assert got == expected, (r, q1, q2, q3)


def test_discrepancy_cube_drop():
    assert QuotientSingularityType(2, 1).discrepancy_cube_drop == Fraction(1, 2)
    assert QuotientSingularityType(5, 2).discrepancy_cube_drop == Fraction(1, 30)
    assert QuotientSingularityType(13, 4).discrepancy_cube_drop == Fraction(1, 468)


@st.composite
def terminal_types(draw):
    r = draw(st.integers(min_value=2, max_value=60))
    choices = [a for a in range(1, r // 2 + 1) if gcd(a, r) == 1]
    return QuotientSingularityType(r, draw(st.sampled_from(choices)))


@given(terminal_types())
def test_normalize_idempotent(t):
    again = normalize_singularity(t.r, 1, t.a, t.r - t.a)
    assert again == t


@st.composite
def type_with_unit(draw):
    t = draw(terminal_types())
    units = [u for u in range(1, t.r) if gcd(u, t.r) == 1]
    return t, draw(st.sampled_from(units))


@given(type_with_unit())
def test_normalize_unit_invariant(tu):
    t, u = tu
    qs = [(u * q) % t.r for q in (1, t.a, t.r - t.a)]
    assert normalize_singularity(t.r, *qs) == t
