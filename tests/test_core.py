from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from wfano.blowup import InconsistentError, NotSymmetricError, UnderdeterminedError
from wfano.classifier import (
    DuplicateGimelError,
    MissingGimelError,
    NotApplicableError,
    TableSyntaxError,
    UnknownGimelError,
)
from wfano.cli import InadmissibleRecordError
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
from wfano.towers import TowerSpecError


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(2, 1, 3, 4)  # not ascending
    with pytest.raises(ValueError):
        Weights(0, 1, 2, 3)


def test_one_class_of_bad_input():
    # the command line exits 2 on exactly these; every other error is a bug
    for bad_input in (
        TableSyntaxError, TowerSpecError, DuplicateGimelError, MissingGimelError,
        UnknownGimelError, InadmissibleRecordError, InconsistentError, UnderdeterminedError,
    ):
        assert issubclass(bad_input, InputError), bad_input
    assert not issubclass(UnknownGimelError, KeyError)
    for bug in (NonTerminalError, NotApplicableError, NotSymmetricError):
        assert not issubclass(bug, InputError), bug


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
