import itertools

import pytest

import oracles
from coxstat.elements import (
    SignedPermutation,
    all_positive_roots,
    compose,
    des_count,
    descent_positions,
    enumerate_elements,
    identity,
    ides_count,
    inv_count,
    inverse,
    iter_windows,
    parse_one_line,
    sample_uniform,
    simple_reflection,
    st_count,
    to_one_line,
)
from coxstat.groups import descriptor, group_order


def _elt(window, t="A"):
    return SignedPermutation(tuple(window), t)


def test_validation():
    with pytest.raises(ValueError):
        _elt([2, 2, 1])
    with pytest.raises(ValueError):
        _elt([-1, 2], "A")
    with pytest.raises(ValueError):
        _elt([-1, 2], "D")
    with pytest.raises(ValueError):
        _elt([1, 3])
    with pytest.raises(ValueError):
        SignedPermutation((), "A")
    with pytest.raises(ValueError):
        SignedPermutation((1, 2), "C")
    _elt([-1, -2], "D")  # even sign count is fine


def test_worked_example_type_a():
    w, expected = oracles.WORKED_A
    p = _elt(w)
    assert inv_count(p) == expected["inv"]
    assert des_count(p) == expected["des"]
    assert ides_count(p) == expected["ides"]
    assert inverse(p).window == (3, 1, 4, 6, 2, 5)
    assert descent_positions(p) == (2, 5)


def test_worked_examples_type_b():
    for window, expected in oracles.WORKED_B:
        assert inv_count(_elt(window, "B")) == expected
    # longest element of B2 inverts all 4 positive roots, descends everywhere
    assert inv_count(_elt([-1, -2], "B")) == 4
    assert des_count(_elt([-1, -2], "B")) == 2
    assert descent_positions(_elt([-1, -2], "B")) == (0, 1)


def test_type_d_descent_head():
    # the position-0 generator itself: head -w(2) = 1 > -2 starts a descent
    p = _elt([-2, -1, 3], "D")
    assert descent_positions(p) == (0,)
    assert des_count(p) == 1
    q = _elt([2, 1, 3], "D")  # head -w(2) = -1 < 2, then 2 > 1
    assert descent_positions(q) == (1,)
    r = _elt([1, 2, 3], "D")
    assert descent_positions(r) == ()


def test_statistics_match_oracles_on_full_groups():
    for family, length in [("A", 4), ("B", 3), ("D", 4)]:
        for w in oracles.iter_windows(family, length):
            p = _elt(w, family)
            assert inv_count(p) == oracles.inv_of(w, family)
            assert des_count(p) == oracles.des_of(w, family)
            assert ides_count(p) == oracles.ides_of(w, family)


def test_inverse_and_compose_are_group_ops():
    ws = [(2, 5, 1, 3, 6, 4), (3, 1, 4, 6, 2, 5), (6, 5, 4, 3, 2, 1)]
    for a, b in itertools.product(ws, repeat=2):
        p, q = _elt(a), _elt(b)
        assert compose(p, q).window == oracles.compose_windows(a, b)
        assert compose(p, inverse(p)) == identity("A", 6)
    pb = _elt([-3, 1, -2], "B")
    assert compose(pb, inverse(pb)) == identity("B", 3)
    assert inverse(inverse(pb)) == pb


def test_descents_detect_length_drops():
    # pos in Des(w) iff multiplying by the generator at pos shortens w
    for family, length in [("A", 4), ("B", 3), ("D", 4)]:
        positions = range(1, length) if family == "A" else range(length)
        gens = {pos: simple_reflection(family, length, pos) for pos in positions}
        for w in oracles.iter_windows(family, length):
            p = _elt(w, family)
            des = set(descent_positions(p))
            for pos, s in gens.items():
                shorter = inv_count(compose(p, s)) < inv_count(p)
                assert shorter == (pos in des), (family, w, pos)


def test_left_descents_are_inverse_descents():
    for family, length in [("A", 4), ("B", 3), ("D", 4)]:
        positions = range(1, length) if family == "A" else range(length)
        gens = {pos: simple_reflection(family, length, pos) for pos in positions}
        for w in oracles.iter_windows(family, length):
            p = _elt(w, family)
            ides = set(descent_positions(inverse(p)))
            for pos, s in gens.items():
                shorter = inv_count(compose(s, p)) < inv_count(p)
                assert shorter == (pos in ides)


def test_st_full_subset_equals_inv():
    for family, length in [("A", 4), ("B", 3), ("D", 4)]:
        full = all_positive_roots(family, length)
        for w in oracles.iter_windows(family, length):
            p = _elt(w, family)
            assert st_count(p, full) == inv_count(p)


def test_st_monotone_in_subset():
    full = all_positive_roots("B", 3)
    members = sorted(full.members)
    import random

    from coxstat.elements import RootSubset

    rng = random.Random(7)
    for _ in range(25):
        sub = frozenset(m for m in members if rng.random() < 0.5)
        subset = RootSubset("B", 3, sub)
        for w in [(-3, 1, -2), (2, -1, 3), (-1, -2, -3)]:
            p = _elt(w, "B")
            assert 0 <= st_count(p, subset) <= inv_count(p) or len(sub) > 0
            assert st_count(p, subset) <= st_count(p, full)


def test_root_subset_validation():
    from coxstat.elements import RootSubset

    with pytest.raises(ValueError, match="not available"):
        RootSubset("A", 3, frozenset({("minus", 1, 2)}))
    with pytest.raises(ValueError, match="not available"):
        RootSubset("D", 3, frozenset({("circ", 1)}))
    with pytest.raises(ValueError):
        RootSubset("B", 3, frozenset({("plus", 2, 2)}))
    with pytest.raises(ValueError):
        RootSubset("B", 3, frozenset({("circ", 4)}))


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


def test_enumerate_elements_descriptor_mapping():
    # A_n windows have length n+1
    d = descriptor(("A", 3))
    elts = list(enumerate_elements(d))
    assert len(elts) == group_order(d) == 24
    assert all(len(p) == 4 and p.ambient_type == "A" for p in elts)
    d = descriptor(("D", 4))
    elts = list(enumerate_elements(d))
    assert len(elts) == 192
    with pytest.raises(ValueError, match="cap"):
        list(enumerate_elements(descriptor(("B", 10))))
    with pytest.raises(ValueError):
        list(enumerate_elements(descriptor(("H", 3))))
    with pytest.raises(ValueError):
        list(enumerate_elements(descriptor(("A", 1)) * descriptor(("A", 1))))


def test_sample_uniform_determinism_and_validity():
    d = descriptor(("D", 5))
    a = sample_uniform(d, 123)
    b = sample_uniform(d, 123)
    c = sample_uniform(d, 124)
    assert a == b
    assert a != c  # overwhelmingly likely; fixed seeds make it deterministic
    # samples are valid type D windows (validation runs in the constructor)
    for seed in range(40):
        p = sample_uniform(d, seed)
        assert sum(1 for v in p.window if v < 0) % 2 == 0


def test_sample_uniform_covers_small_group():
    d = descriptor(("A", 2))
    seen = {sample_uniform(d, seed).window for seed in range(200)}
    assert len(seen) == 6


def test_one_line_round_trip():
    p = _elt([2, 5, 1, 3, 6, 4])
    assert to_one_line(p) == "[2,5,1,3,6,4]"
    assert parse_one_line(to_one_line(p), "A") == p
    q = parse_one_line(" [ -3 , 1 , -2 ] ".replace(" ", ""), "B")
    assert q.window == (-3, 1, -2)
    with pytest.raises(ValueError):
        parse_one_line("[1,2,x]", "A")
    with pytest.raises(ValueError):
        parse_one_line("[]", "A")
