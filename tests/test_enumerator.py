import random
import re
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest

from wfano import enumerator
from wfano.classifier import load_families
from wfano.core import NonTerminalError, Weights, extend_reach, is_representable
from wfano.enumerator import (
    _vertex_pairs,
    enumerate_families,
    has_only_terminal_isolated_sings,
    is_quasismooth,
    is_quasismooth_general,
)
from wfano.singularities import quotient_points, singular_points


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


def passes_at_vertex(a, ws):
    """Quasismoothness of the K3 elephant S_d in P(ws) at the vertex of
    the weight a of ws = (a1, a2, a3, a4) alone: with d = a1+a2+a3+a4, a
    divides one of d, d-a1, d-a2, d-a3, d-a4.  The threefold's eliminator
    x0 of weight 1 (d-1) is left out."""
    d = sum(ws)
    return any((d - e) % a == 0 for e in (0, *ws))


def meets_vertex_conditions(*ws):
    """Quasismoothness at each of the vertices P1..P4 alone."""
    return all(passes_at_vertex(a, ws) for a in ws)


def three_share_a_factor(a1, a2, a3, a4):
    return any(gcd(*triple) > 1 for triple in combinations((a1, a2, a3, a4), 3))


def test_vertex_pruning_is_sound():
    # enumerate_families solves the P4 and P3 conditions and filters on the
    # P2 and P1 conditions; every admissible system meets all four, the
    # unpruned brute force being the reference
    assert all(meets_vertex_conditions(*w) for w in brute_force(33))
    # quasismoothness alone does not imply them: P(1,3,4,4,5) is quasismooth
    # only through x0 at P4, so the soundness rests on the walk rejecting it
    w = Weights(3, 4, 4, 5)
    assert is_quasismooth_general(w)
    assert not passes_at_vertex(5, tuple(w))
    assert not has_only_terminal_isolated_sings(w)


def test_vertex_pairs_meet_the_four_vertex_tests_and_share_nothing_with_a3_a4():
    # _vertex_pairs solves the four conditions and the shared factor of a3
    # and a4 on sum lines and member lines; a scan of every (a1, a2) is the
    # reference, each pair yielded once.  a3 = 1 makes every residue mod a3
    # zero, and a3 = a4 has the member m4 = a3 rather than a4 - a3; README's
    # figure is the total
    total = 0
    for a4 in range(1, 41):
        for a3 in range(1, a4 + 1):
            expected = [
                (a1, a2)
                for a1 in range(1, a3 + 1)
                for a2 in range(a1, a3 + 1)
                if meets_vertex_conditions(a1, a2, a3, a4) and gcd(a1 * a2, gcd(a3, a4)) == 1
            ]
            assert sorted(_vertex_pairs(a3, a4)) == expected, (a3, a4)
            total += len(expected)
    assert total == 99
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    figure = re.search(r"yields (\d+) pairs\s+at bound 40", readme)
    assert figure and int(figure.group(1)) == total


@pytest.mark.parametrize("bound, count", [(20, 87), (40, 95)])
def test_candidates_are_the_pruned_systems(monkeypatch, bound, count):
    # the walk, the first predicate, sees each system that meets the four
    # vertex conditions and has no three weights sharing a factor once, and
    # no other system
    seen = []

    def recording(w):
        seen.append(tuple(w))
        return has_only_terminal_isolated_sings(w)

    monkeypatch.setattr(enumerator, "has_only_terminal_isolated_sings", recording)
    enumerate_families(bound)
    expected = [
        (a1, a2, a3, a4)
        for a4 in range(1, bound + 1)
        for a3 in range(1, a4 + 1)
        for a2 in range(1, a3 + 1)
        for a1 in range(1, a2 + 1)
        if meets_vertex_conditions(a1, a2, a3, a4) and not three_share_a_factor(a1, a2, a3, a4)
    ]
    assert len(expected) == count
    assert sorted(seen) == sorted(expected)


def test_criterion_sees_only_what_the_walk_accepts(monkeypatch):
    # the walk runs first, so the criterion runs on its survivors and on no
    # system the walk rejected; at bounds 100 and 40 the pruning leaves only
    # the 95, so every system the walk accepts passes the criterion; README's
    # figures are the counts at 40
    walked, checked = {}, []

    def walk(w):
        walked[w] = has_only_terminal_isolated_sings(w)
        return walked[w]

    def criterion(w):
        checked.append(w)
        return is_quasismooth_general(w)

    monkeypatch.setattr(enumerator, "has_only_terminal_isolated_sings", walk)
    monkeypatch.setattr(enumerator, "is_quasismooth_general", criterion)
    for bound in (100, 40):
        walked.clear()
        checked.clear()
        found = enumerate_families(bound)
        assert (len(walked), len(checked), len(found)) == (95, 95, 95), bound
        assert sorted(checked) == sorted(w for w, accepted in walked.items() if accepted)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    figures = re.search(r"at bound 40, (\d+) walked\s+and (\d+) checked", readme)
    assert figures and tuple(map(int, figures.groups())) == (len(walked), len(checked))


def test_bound_validation():
    with pytest.raises(ValueError):
        enumerate_families(0)
    with pytest.raises(ValueError, match="integer"):
        enumerate_families(True)  # a bool is an int, but no bound


def test_smallest_bound():
    found = {tuple(w) for w in enumerate_families(2)}
    assert found == {(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2)}


def test_ordering_is_degree_then_weights():
    out = enumerate_families(6)
    keys = [(w.degree, tuple(w)) for w in out]
    assert keys == sorted(keys)


@pytest.mark.parametrize("bound", [4, 7, 10, 60])
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
    # factor g of three weights a_i, a_j, a_k, the walk's stratum P_iP_j has
    # the local weight a_k, which shares g with the index; enumerate_families
    # relies on this when it skips such systems unbuilt
    rejected = all_four = 0
    for a4 in range(1, 41):
        for a3 in range(1, a4 + 1):
            for a2 in range(1, a3 + 1):
                for a1 in range(1, a2 + 1):
                    if three_share_a_factor(a1, a2, a3, a4):
                        assert not has_only_terminal_isolated_sings(Weights(a1, a2, a3, a4))
                        rejected += 1
                        all_four += gcd(a1, a2, a3, a4) > 1
    assert (rejected, all_four) == (53876, 10941)


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


def test_k3_elephants_are_the_95():
    # the second characterization: the well-formed surfaces S_d in
    # P(a1, a2, a3, a4), d = a1+a2+a3+a4, that are quasismooth are exactly
    # the 95 recorded systems; neither the walk nor the threefold criterion
    # runs.  Well-formed: no three weights share a factor, and every pair
    # gcd divides d
    elephants, well_formed = set(), 0
    for a4 in range(1, 34):
        for a3 in range(1, a4 + 1):
            for a2 in range(1, a3 + 1):
                for a1 in range(1, a2 + 1):
                    ws = (a1, a2, a3, a4)
                    d = sum(ws)
                    if three_share_a_factor(*ws) or any(d % gcd(*pair) for pair in combinations(ws, 2)):
                        continue
                    well_formed += 1
                    if unskipped_quasismooth(ws, d):
                        elephants.add(ws)
    assert well_formed == 17128
    assert elephants == {tuple(rec.weights) for rec in load_families()}


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


def unpruned_quasismooth(ws, d):
    """`is_quasismooth` without its superset pruning: every subset of the
    variables of weight >= 2 gets its own exact reach mask."""
    heavy = [a for a in ws if a >= 2]
    masks = [1]
    for s in range(1, 1 << len(heavy)):
        rest = s & (s - 1)
        mask = extend_reach(masks[rest], heavy[(s ^ rest).bit_length() - 1], d)
        masks.append(mask)
        if not mask >> d & 1:
            hits = sum(1 for a in ws if a <= d and mask >> (d - a) & 1)
            if hits < s.bit_count():
                return False
    return True


def test_superset_pruning_changes_no_verdict():
    # every ascending tuple of 1 to 5 weights from 1..8 at every degree
    # below 40, then seeded random inputs with up to 6 weights
    inputs = [
        (ws, d)
        for n in range(1, 6)
        for ws in combinations_with_replacement(range(1, 9), n)
        for d in range(1, 40)
    ]
    rng = random.Random(28)
    for _ in range(3000):
        ws = tuple(sorted(rng.randint(1, 40) for _ in range(rng.randint(1, 6))))
        inputs.append((ws, rng.randint(1, 3 * ws[-1])))
    verdicts = [is_quasismooth(ws, d) for ws, d in inputs]
    assert verdicts == [unpruned_quasismooth(ws, d) for ws, d in inputs]
    assert any(verdicts) and not all(verdicts)


def test_superset_pruning_skips_mask_builds(monkeypatch):
    # on the 95 ambients, about half the subsets of weight >= 2 variables
    # sit above one that already reaches d
    builds = []

    def counting(mask, a, d):
        builds.append(a)
        return extend_reach(mask, a, d)

    monkeypatch.setattr(enumerator, "extend_reach", counting)
    subsets = 0
    for rec in load_families():
        assert is_quasismooth_general(rec.weights)
        subsets += (1 << sum(a >= 2 for a in rec.weights)) - 1
    assert (subsets, len(builds)) == (1054, 512)


def test_vertex_rejections_build_no_mask(monkeypatch):
    # the single-variable subsets are the vertex conditions: where the
    # walk's vertex loop finds a vertex with no eliminator, the criterion
    # rejects before its first mask build; elsewhere a rejection needs the
    # mask of the failing subset.  Seeded ambients with d >= every weight,
    # as the walk assumes, threefold ones among them
    builds = []

    def counting(mask, a, d):
        builds.append(a)
        return extend_reach(mask, a, d)

    monkeypatch.setattr(enumerator, "extend_reach", counting)
    rng = random.Random(29)
    vertex_rejections = later_rejections = passed = 0
    for n in range(2000):
        if n % 2:  # P(1, a1, a2, a3, a4) at the anticanonical degree
            ws = (1, *sorted(rng.randint(1, 12) for _ in range(4)))
            d = sum(ws)
        else:
            ws = tuple(sorted(rng.randint(1, 12) for _ in range(rng.randint(2, 6))))
            d = rng.randint(ws[-1], 3 * ws[-1])
        try:
            list(quotient_points(ws, d))
            no_eliminator = False
        except NonTerminalError as e:
            no_eliminator = str(e).startswith("no monomial")
        builds.clear()
        verdict = is_quasismooth(ws, d)
        if no_eliminator:
            assert (verdict, len(builds)) == (False, 0), (ws, d)
            vertex_rejections += 1
        elif not verdict:
            assert builds, (ws, d)
            later_rejections += 1
        else:
            passed += 1
    assert (vertex_rejections, later_rejections, passed) == (1559, 111, 330)


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


@pytest.mark.parametrize("ws", [(0, 2), (2, -1)], ids=["zero", "negative"])
def test_quasismooth_rejects_weight_below_one(ws):
    with pytest.raises(ValueError, match=r"weights must be positive, got \("):
        is_quasismooth(ws, 3)


@pytest.mark.parametrize("d", [0, -3, -4])
def test_quasismooth_rejects_degree_below_one(d):
    # (2,) fails its vertex at -3 and would shift by -4: the degree is checked first
    with pytest.raises(ValueError, match=rf"degree must be positive, got {d}$"):
        is_quasismooth((2,), d)
