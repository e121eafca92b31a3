import pytest

from wfano.classifier import load_families
from wfano.core import NonTerminalError, Weights
from wfano.enumerator import (
    enumerate_families,
    has_only_terminal_isolated_sings,
    is_quasismooth_general,
)
from wfano.singularities import NoEliminatorError, coordinate_point_type


def test_bound_validation():
    with pytest.raises(ValueError):
        enumerate_families(0)


def test_smallest_bound():
    found = {tuple(w) for w in enumerate_families(2)}
    assert found == {(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2)}


def test_ordering_is_degree_then_weights():
    out = enumerate_families(6)
    keys = [(w.degree, tuple(w)) for w in out]
    assert keys == sorted(keys)


@pytest.mark.parametrize("bound", [4, 7, 10])
def test_matches_dataset_below_bound(bound):
    # the embedded table is the oracle: below any cutoff the enumeration
    # must produce exactly the recorded weight systems
    expected = {
        tuple(rec.weights) for rec in load_families() if rec.weights.a4 <= bound
    }
    assert {tuple(w) for w in enumerate_families(bound)} == expected


def test_quasismooth_examples():
    assert is_quasismooth_general(Weights(1, 1, 1, 1))
    assert is_quasismooth_general(Weights(1, 2, 3, 5))
    # the weight-5 vertex admits no degree-18 monomial x3^k * xj
    assert not is_quasismooth_general(Weights(2, 4, 5, 7))


def test_terminality_examples():
    assert has_only_terminal_isolated_sings(Weights(1, 2, 3, 5))
    # gcd(2,4,6) on a coordinate plane: a whole curve of non-isolated points
    assert not has_only_terminal_isolated_sings(Weights(2, 4, 6, 7))
    # quasismooth, but the weights share the factor 2
    assert is_quasismooth_general(Weights(2, 2, 2, 2))
    assert not has_only_terminal_isolated_sings(Weights(2, 2, 2, 2))
    # quasismooth, but P4 is 1/5(3,4,4), which is not terminal
    assert is_quasismooth_general(Weights(3, 4, 4, 5))
    with pytest.raises(NonTerminalError):
        coordinate_point_type(Weights(3, 4, 4, 5), 4)
    assert not has_only_terminal_isolated_sings(Weights(3, 4, 4, 5))
    # not quasismooth at P3: no eliminator there, so no terminal point
    with pytest.raises(NoEliminatorError):
        coordinate_point_type(Weights(2, 4, 5, 7), 3)
    assert not has_only_terminal_isolated_sings(Weights(2, 4, 5, 7))


def test_growth_is_monotone():
    sizes = [len(enumerate_families(b)) for b in (2, 5, 8, 12)]
    assert sizes == sorted(sizes)
