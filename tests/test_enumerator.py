from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import gcd

import pytest

from wfano import enumerator
from wfano.classifier import load_families
from wfano.core import NonTerminalError, Weights, is_representable
from wfano.enumerator import (
    enumerate_families,
    has_only_terminal_isolated_sings,
    is_quasismooth,
    is_quasismooth_general,
)
from wfano.singularities import singular_points


@lru_cache(maxsize=None)
def quasismooth_systems(bound):
    """Every 1 <= a1 <= a2 <= a3 <= a4 <= bound that passes the
    quasismoothness criterion, with no pruning."""
    return tuple(
        w
        for a4 in range(1, bound + 1)
        for a3 in range(1, a4 + 1)
        for a2 in range(1, a3 + 1)
        for a1 in range(1, a2 + 1)
        if is_quasismooth_general(w := Weights(a1, a2, a3, a4))
    )


def brute_force(bound):
    """The search without pruning: both predicates on every candidate."""
    found = [w for w in quasismooth_systems(bound) if has_only_terminal_isolated_sings(w)]
    return sorted(found, key=lambda w: (w.degree, tuple(w)))


@pytest.mark.parametrize("bound", [5, 12, 20, 33])
def test_matches_brute_force(bound):
    assert enumerate_families(bound) == brute_force(bound)


def meets_vertex_conditions(a1, a2, a3, a4):
    """Quasismoothness at P4 and at P3 alone: with d = a1+a2+a3+a4, a4
    divides one of d, d-1, d-a1, d-a2, d-a3, and a3 one of d, d-1, d-a1,
    d-a2, d-a4."""
    d = a1 + a2 + a3 + a4
    return any((d - e) % a4 == 0 for e in (0, 1, a1, a2, a3)) and any(
        (d - e) % a3 == 0 for e in (0, 1, a1, a2, a4)
    )


def test_vertex_pruning_is_sound():
    # enumerate_families takes a4 from the P4 condition and filters on the
    # P3 condition; every quasismooth system meets both
    assert all(meets_vertex_conditions(*w) for w in quasismooth_systems(33))


def test_candidates_are_the_pruned_systems(monkeypatch):
    # the predicates see each system that meets the P4 and P3 conditions
    # once, and no other system
    seen = []

    def recording(w):
        seen.append(tuple(w))
        return is_quasismooth_general(w)

    monkeypatch.setattr(enumerator, "is_quasismooth_general", recording)
    enumerate_families(20)
    expected = [
        (a1, a2, a3, a4)
        for a4 in range(1, 21)
        for a3 in range(1, a4 + 1)
        for a2 in range(1, a3 + 1)
        for a1 in range(1, a2 + 1)
        if meets_vertex_conditions(a1, a2, a3, a4)
    ]
    assert sorted(seen) == sorted(expected)


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
    with pytest.raises(NonTerminalError, match=r"1/5\(3,4,4\)"):
        list(singular_points(Weights(3, 4, 4, 5)))
    assert not has_only_terminal_isolated_sings(Weights(3, 4, 4, 5))
    # not quasismooth at P3: no eliminator there, so no terminal point
    with pytest.raises(NonTerminalError, match="no monomial x_3"):
        list(singular_points(Weights(2, 4, 5, 7)))
    assert not has_only_terminal_isolated_sings(Weights(2, 4, 5, 7))


def test_common_factor_is_rejected_by_the_walk():
    # has_only_terminal_isolated_sings has no gcd test of its own: with a
    # factor g of all four weights, the walk's point on P1P2 has the local
    # weight a3, which shares g with the index
    rejected = 0
    for a4 in range(1, 41):
        for a3 in range(1, a4 + 1):
            for a2 in range(1, a3 + 1):
                for a1 in range(1, a2 + 1):
                    if gcd(a1, a2, a3, a4) > 1:
                        assert not has_only_terminal_isolated_sings(Weights(a1, a2, a3, a4))
                        rejected += 1
    assert rejected == 10941


def unskipped_quasismooth(ws, d):
    """The quasismoothness criterion on every non-empty subset of the
    variables, weight-1 variables included."""
    for size in range(1, len(ws) + 1):
        for subset in combinations(range(len(ws)), size):
            iws = tuple(ws[i] for i in subset)
            if is_representable(d, iws):
                continue
            outside = [e for e in range(len(ws)) if e not in subset]
            if sum(1 for e in outside if is_representable(d - ws[e], iws)) < size:
                return False
    return True


def test_weight_one_subsets_need_no_test():
    # is_quasismooth skips every subset with a weight-1 variable; on the
    # threefold ambients and on the surfaces P(a1,a2,a3,a4) of the same
    # degree the skip changes no verdict
    ambients = 0
    for a4 in range(1, 17):
        for a3 in range(1, a4 + 1):
            for a2 in range(1, a3 + 1):
                for a1 in range(1, a2 + 1):
                    d = a1 + a2 + a3 + a4
                    for ws in ((1, a1, a2, a3, a4), (a1, a2, a3, a4)):
                        assert is_quasismooth(ws, d) == unskipped_quasismooth(ws, d), ws
                        ambients += 1
    assert ambients == 7752


@pytest.mark.parametrize("n, top", [(3, 9), (4, 7), (5, 5)])
def test_criterion_away_from_the_anticanonical_degree(n, top):
    # every ascending ws with n weights from 1..top, repeats included, and
    # every degree 1..2*max(ws), so degrees below some weight (negative
    # targets d - a) are met too
    verdicts = []
    below = 0
    for ws in combinations_with_replacement(range(1, top + 1), n):
        for d in range(1, 2 * ws[-1] + 1):
            verdict = is_quasismooth(ws, d)
            assert verdict == unskipped_quasismooth(ws, d), (ws, d)
            verdicts.append(verdict)
            below += d < ws[-1]
    assert (len(verdicts), below) == {3: (2310, 990), 4: (2436, 1008), 5: (1092, 420)}[n]
    assert any(verdicts) and not all(verdicts)


def test_growth_is_monotone():
    sizes = [len(enumerate_families(b)) for b in (2, 5, 8, 12)]
    assert sizes == sorted(sizes)
