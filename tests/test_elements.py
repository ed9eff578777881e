import itertools
from collections import Counter

import oracles
from coxstat.elements import (
    all_positive_roots,
    des_count,
    descent_positions,
    ides_count,
    inv_count,
    inverse,
    iter_windows,
    st_count,
    to_one_line,
    window_tally,
)
from coxstat.groups import descriptor, group_order


def test_worked_example_type_a():
    w, expected = oracles.WORKED_A
    assert inv_count(w, "A") == expected["inv"]
    assert des_count(w, "A") == expected["des"]
    assert ides_count(w, "A") == expected["ides"]
    assert inverse(w) == (3, 1, 4, 6, 2, 5)
    assert descent_positions(w, "A") == (2, 5)


def test_worked_examples_type_b():
    for window, expected in oracles.WORKED_B:
        assert inv_count(window, "B") == expected
    # longest element of B2 inverts all 4 positive roots, descends everywhere
    assert inv_count((-1, -2), "B") == 4
    assert des_count((-1, -2), "B") == 2
    assert descent_positions((-1, -2), "B") == (0, 1)


def test_type_d_descent_head():
    # the position-0 generator itself: head -w(2) = 1 > -2 starts a descent
    assert descent_positions((-2, -1, 3), "D") == (0,)
    assert des_count((-2, -1, 3), "D") == 1
    # head -w(2) = -1 < 2, then 2 > 1
    assert descent_positions((2, 1, 3), "D") == (1,)
    assert descent_positions((1, 2, 3), "D") == ()


def test_statistics_match_oracles_on_full_groups():
    for family, length in [("A", 4), ("B", 3), ("D", 4)]:
        for w in oracles.iter_windows(family, length):
            assert inv_count(w, family) == oracles.inv_of(w, family)
            assert des_count(w, family) == oracles.des_of(w, family)
            assert ides_count(w, family) == oracles.ides_of(w, family)


def test_inverse_and_compose_are_group_ops():
    # inverse against composition from the definition (oracles)
    ws = [(2, 5, 1, 3, 6, 4), (3, 1, 4, 6, 2, 5), (6, 5, 4, 3, 2, 1), (-3, 1, -2)]
    for w in ws:
        identity = tuple(range(1, len(w) + 1))
        assert oracles.compose_windows(w, inverse(w)) == identity
        assert oracles.compose_windows(inverse(w), w) == identity
        assert inverse(inverse(w)) == w
        assert inverse(w) == oracles.invert_window(w)


def _generators(family, length):
    positions = range(1, length) if family == "A" else range(length)
    return {pos: oracles.simple_reflection(family, length, pos) for pos in positions}


def test_descents_detect_length_drops():
    # pos in Des(w) iff multiplying by the generator at pos shortens w
    for family, length in [("A", 4), ("B", 3), ("D", 4)]:
        gens = _generators(family, length)
        for w in oracles.iter_windows(family, length):
            des = set(descent_positions(w, family))
            for pos, s in gens.items():
                ws = oracles.compose_windows(w, s)
                shorter = inv_count(ws, family) < inv_count(w, family)
                assert shorter == (pos in des), (family, w, pos)


def test_left_descents_are_inverse_descents():
    for family, length in [("A", 4), ("B", 3), ("D", 4)]:
        gens = _generators(family, length)
        for w in oracles.iter_windows(family, length):
            ides = set(descent_positions(inverse(w), family))
            for pos, s in gens.items():
                sw = oracles.compose_windows(s, w)
                shorter = inv_count(sw, family) < inv_count(w, family)
                assert shorter == (pos in ides)


def test_st_full_subset_equals_inv():
    for family, length in [("A", 4), ("B", 3), ("D", 4)]:
        full = all_positive_roots(family, length)
        for w in oracles.iter_windows(family, length):
            assert st_count(w, full) == inv_count(w, family)


def test_st_monotone_in_subset():
    full = all_positive_roots("B", 3)
    import random

    rng = random.Random(7)
    for _ in range(25):
        sub = frozenset(m for m in full if rng.random() < 0.5)
        for w in [(-3, 1, -2), (2, -1, 3), (-1, -2, -3)]:
            assert st_count(w, full) == inv_count(w, "B")
            assert 0 <= st_count(w, sub) <= st_count(w, full)


def _sign_then_permutation(window):
    # plus sorts before minus positionwise
    return tuple(v < 0 for v in window), tuple(abs(v) for v in window)


def test_enumeration_order_and_count():
    for family, length in [("A", 4), ("B", 3), ("B", 4), ("D", 4)]:
        all_windows = list(iter_windows(family, length))
        # a type A window of length n realizes A_{n-1}
        rank = length - 1 if family == "A" else length
        assert len(all_windows) == group_order(descriptor((family, rank)))
        assert len(set(all_windows)) == len(all_windows)
        assert all_windows == sorted(all_windows, key=_sign_then_permutation)
        # identity first for every family
        assert all_windows[0] == tuple(range(1, length + 1))
    # iter_windows yields exactly the valid windows of its family, each
    # once; the statistics take windows unchecked on the strength of this
    cases = [("A", n) for n in range(2, 7)] + [("B", n) for n in range(2, 5)] \
        + [("D", 4), ("D", 5)]
    for family, length in cases:
        windows = list(iter_windows(family, length))
        assert len(windows) == oracles.count_windows(family, length)
        for w in windows:
            negatives = sum(1 for v in w if v < 0)
            assert sorted(map(abs, w)) == list(range(1, length + 1)), w
            if family == "A":
                assert negatives == 0, w
            elif family == "D":
                assert negatives % 2 == 0, w
        assert set(windows) == set(oracles.iter_windows(family, length)), (family, length)


_TALLY_CASES = [("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)] \
    + [("D", 4), ("D", 5)]


def _des_plus_ides(w, family):
    return des_count(w, family) + ides_count(w, family)


def test_window_tally_matches_a_tally_in_enumeration_order():
    # window_tally visits the windows grouped by negated values, not in
    # iter_windows order; the histogram must not see the difference
    for family, length in _TALLY_CASES:
        windows = list(iter_windows(family, length))
        for statfn in (inv_count, des_count, ides_count, _des_plus_ides):
            counts = Counter(statfn(w, family) for w in windows)
            want = tuple(counts[k] for k in range(max(counts) + 1))
            assert window_tally(family, length, statfn) == want, \
                (family, length, statfn.__name__)


def test_des_count_counts_the_descent_positions():
    for family, length in _TALLY_CASES:
        for w in iter_windows(family, length):
            assert des_count(w, family) == len(descent_positions(w, family)), (family, w)


def test_one_line_round_trip():
    assert to_one_line((2, 5, 1, 3, 6, 4)) == "[2,5,1,3,6,4]"
    assert to_one_line((-3, 1, -2)) == "[-3,1,-2]"
