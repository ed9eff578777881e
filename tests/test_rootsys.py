import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxstat
import oracles
from coxstat.groups import (
    coxeter_edges,
    descriptor,
    group_order,
    irreducible,
    parse_descriptor,
    positive_root_count,
)
from coxstat.moments import double_eulerian_moments
from coxstat.polynomials import gf_inv
from coxstat.rootsys import (
    ElementRecord,
    build_root_system,
    compose_actions,
    cyclotomic_polynomial,
    element_actions,
    enumerate_inversion_sets,
    minimal_polynomial_2cos,
    simple_action,
    statistics_tally,
)
from coxstat.tallies import cached_tally, read_tally_file, write_tally_file


def identity_action(rs):
    return tuple(range(1, rs.root_count + 1))


# ---------------------------------------------------------------------------
# minimal polynomials

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    # degree is Euler phi
    for n, deg in [(5, 4), (7, 6), (9, 6), (20, 8)]:
        assert len(cyclotomic_polynomial(n)) - 1 == deg
    # the Moebius product against the divisor-by-divisor division route
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == oracles.cyclotomic_polynomial(n), n


def test_minimal_polynomial_of_two_cos():
    assert minimal_polynomial_2cos(6) == [-1, 1]      # 2cos(60) = 1
    assert minimal_polynomial_2cos(8) == [-2, 0, 1]   # sqrt 2
    assert minimal_polynomial_2cos(10) == [-1, -1, 1]  # phi
    assert minimal_polynomial_2cos(12) == [-3, 0, 1]  # sqrt 3
    for N in range(3, 40):
        poly = minimal_polynomial_2cos(N)
        x = 2 * math.cos(2 * math.pi / N)
        val = sum(c * x ** i for i, c in enumerate(poly))
        assert abs(val) < 1e-9, N


# ---------------------------------------------------------------------------
# closure

ALL_SMALL_LABELS = [
    irreducible("A", 1), irreducible("A", 2), irreducible("A", 5),
    irreducible("A", 12), irreducible("B", 2), irreducible("B", 3),
    irreducible("B", 12), irreducible("D", 4), irreducible("D", 12),
    irreducible("E", 6), irreducible("E", 7), irreducible("E", 8),
    irreducible("F", 4), irreducible("H", 3), irreducible("H", 4),
    irreducible("I2", 2, 3), irreducible("I2", 2, 7), irreducible("I2", 2, 50),
]


def test_closure_counts_match_degree_formula():
    for lab in ALL_SMALL_LABELS:
        rs = build_root_system(lab)
        assert rs.root_count == positive_root_count(descriptor(lab)), lab
        # simple roots come first as basis vectors
        for s in range(rs.rank):
            coords = rs.positive_roots[s]
            assert sum(1 for c in coords if c) == 1


def test_simple_pair_orders_match_coxeter_edges():
    # the realization must be the diagram: s_a s_b has order m on an edge
    # labelled m, and order 2 when a and b are not joined
    for lab in ALL_SMALL_LABELS:
        rs = build_root_system(lab)
        labels = {frozenset((a, b)): m for a, b, m in coxeter_edges(lab)}
        identity = identity_action(rs)
        for a in range(rs.rank):
            for b in range(a + 1, rs.rank):
                step = compose_actions(simple_action(rs, a), simple_action(rs, b))
                w, order = step, 1
                while w != identity:
                    w, order = compose_actions(w, step), order + 1
                assert order == labels.get(frozenset((a, b)), 2), (lab, a, b)


def test_action_rows_are_permutations_fixing_s():
    for lab in [irreducible("A", 3), irreducible("B", 3), irreducible("H", 3),
                irreducible("I2", 2, 8)]:
        rs = build_root_system(lab)
        for s, row in enumerate(rs.action):
            assert sorted(row) == list(range(rs.root_count))
            assert row[s] == s
            # involution: applying twice is the identity permutation
            assert all(row[row[j]] == j for j in range(rs.root_count))


def test_dihedral_closed_form_action():
    # in I2(m) the simple reflections act on the m positive roots like the
    # reflections of an m-gon's mirror lines; check against independent
    # float geometry at angle k*pi/m
    for m in [3, 4, 5, 6, 7, 12]:
        rs = build_root_system(irreducible("I2", 2, m))
        assert rs.root_count == m
        # root angles: simple roots alpha_0 at angle 0, alpha_1 at pi - pi/m;
        # express each closure root in float coordinates and match indices
        ang1 = math.pi - math.pi / m
        a1 = (math.cos(ang1), math.sin(ang1))

        # each coordinate is k power-basis coefficients of 2cos(pi/m):
        # alpha_0's in the first k entries of a root, alpha_1's in the next k
        k = len(minimal_polynomial_2cos(2 * m)) - 1
        x = 2 * math.cos(math.pi / m)

        def val(coeffs):
            return sum(c * x ** i for i, c in enumerate(coeffs))

        floats = []
        for coords in rs.positive_roots:
            assert len(coords) == 2 * k
            assert all(type(c) is int for c in coords)
            c0, c1 = val(coords[:k]), val(coords[k:])
            floats.append((c0 + c1 * a1[0], c1 * a1[1]))
        # all unit length, pairwise distinct angles in [0, pi)
        angles = sorted(math.atan2(v[1], v[0]) % math.pi for v in floats)
        for v in floats:
            assert abs(v[0] ** 2 + v[1] ** 2 - 1) < 1e-9
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        assert all(abs(g - math.pi / m) < 1e-9 for g in gaps)


def test_rejects_overflowing_closure():
    # E8 is larger than the enumeration cap: the whole-group walks name its
    # order and the cap before anything is walked, while the lazy records
    # start at once
    rs = build_root_system(irreducible("E", 8))
    for walk in (lambda: statistics_tally(rs, "des"),
                 lambda: next(element_actions(rs))):
        with pytest.raises(ValueError,
                           match="696729600 of E8 exceeds enumeration cap 5000000"):
            walk()
    assert next(enumerate_inversion_sets(rs)) == ElementRecord(0, 0, 0, 0)


def test_records_stop_at_the_cap_on_a_larger_group(monkeypatch):
    # past the cap the walk goes on only for a group within it
    import coxstat.rootsys as rootsys

    monkeypatch.setattr(rootsys, "DEFAULT_ENUM_CAP", 100)
    rs = build_root_system(irreducible("E", 6))
    records = enumerate_inversion_sets(rs)
    # levels 0..4 of E6 hold 1 + 6 + 20 + 50 + 105 elements
    assert len(list(itertools.islice(records, 182))) == 182
    with pytest.raises(ValueError, match="51840 of E6 exceeds enumeration cap 100"):
        next(records)


def test_realization_matches_pinned_digests():
    # enumerate stdout and action tables of E, F, H and I2, pinned from a
    # known-good version by tests/oracles.py
    want = oracles.read_realization_digests()
    got = oracles.realization_digests()
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


@pytest.mark.parametrize("group", oracles.REALIZATION_WALKS)
def test_element_actions_order_matches_pinned_digests(group):
    # the walk's generation order, element by element, as element_actions
    # yields it; nothing else pins the order within a level
    want = oracles.read_realization_digests()[f"actions-walk {group}"]
    assert oracles.actions_walk_digest(group) == want


@pytest.mark.parametrize("group, block", oracles.REALIZATION_BLOCK_WALKS)
def test_element_actions_order_across_blocks_matches_pinned_digests(
        monkeypatch, group, block):
    # with small blocks a level spans several, so this pins the order in
    # which a level's blocks are extended as well as the order within one
    import coxstat.rootsys as rootsys

    monkeypatch.setattr(rootsys, "_TALLY_BLOCK", block)
    want = oracles.read_realization_digests()[f"actions-walk {group} block {block}"]
    assert oracles.actions_walk_digest(group) == want


# ---------------------------------------------------------------------------
# element walk vs window oracles

def _records(lab):
    return list(enumerate_inversion_sets(build_root_system(lab)))


def test_walk_counts_and_longest_element():
    for lab in [irreducible("A", 3), irreducible("B", 3), irreducible("H", 3),
                irreducible("I2", 2, 9)]:
        rs = build_root_system(lab)
        recs = _records(lab)
        order = group_order(descriptor(lab))
        assert len(recs) == order
        assert len({r.inversion_set for r in recs}) == order
        N = rs.root_count
        tops = [r for r in recs if r.length == N]
        assert len(tops) == 1
        assert tops[0].inversion_set == (1 << N) - 1
        assert tops[0].right_descents == (1 << rs.rank) - 1
        ids = [r for r in recs if r.length == 0]
        assert ids == [ElementRecord(0, 0, 0, 0)]


def test_length_tallies_match_window_inv():
    for family, length, lab in [
        ("A", 4, irreducible("A", 3)),
        ("B", 3, irreducible("B", 3)),
        ("D", 4, irreducible("D", 4)),
    ]:
        want = oracles.tally(family, length, lambda w: oracles.inv_of(w, family))
        rs = build_root_system(lab)
        got = statistics_tally(rs, "inv")
        assert list(got) == want


def test_descent_tallies_match_window_des():
    for family, length, lab in [
        ("A", 5, irreducible("A", 4)),
        ("B", 4, irreducible("B", 4)),
        ("D", 4, irreducible("D", 4)),
    ]:
        want = oracles.tally(family, length, lambda w: oracles.des_of(w, family))
        got = statistics_tally(build_root_system(lab), "des")
        assert list(got) == want


def test_two_sided_tallies_match_windows():
    for family, length, lab in [
        ("A", 4, irreducible("A", 3)),
        ("B", 3, irreducible("B", 3)),
        ("D", 4, irreducible("D", 4)),
    ]:
        want = oracles.tally(
            family, length,
            lambda w: oracles.des_of(w, family) + oracles.ides_of(w, family),
        )
        got = statistics_tally(build_root_system(lab), "des_plus_ides")
        assert list(got) == want


def test_two_sided_tallies_in_small_row_blocks(monkeypatch):
    # levels of several blocks each, with a short last block
    import coxstat.rootsys as rootsys

    monkeypatch.setattr(rootsys, "_TALLY_BLOCK", 7)
    for family, length, lab in [("B", 3, irreducible("B", 3)), ("D", 4, irreducible("D", 4))]:
        want = oracles.tally(
            family, length,
            lambda w: oracles.des_of(w, family) + oracles.ides_of(w, family),
        )
        assert list(statistics_tally(build_root_system(lab), "des_plus_ides")) == want


def test_walk_inv_tallies_match_degree_product(monkeypatch):
    # every level size, not just the total, against the product of [d]_q,
    # with levels of one block and of many
    import coxstat.rootsys as rootsys

    for block in [rootsys._TALLY_BLOCK, 64]:
        monkeypatch.setattr(rootsys, "_TALLY_BLOCK", block)
        for text in ["A7", "B6", "D6", "H4"]:
            d = parse_descriptor(text)
            got = statistics_tally(build_root_system(d.factors[0]), "inv")
            assert got == gf_inv(d).coefficients, (text, block)


@pytest.mark.parametrize("text", ["E6", "B6"])
@pytest.mark.parametrize("statistic", ["des", "des_plus_ides"])
def test_walk_keeps_about_one_level_alive(monkeypatch, text, statistic):
    # each block of a level is dropped once its children are built, so the
    # traced peak stays within two of the largest level
    import tracemalloc

    import coxstat.rootsys as rootsys

    monkeypatch.setattr(rootsys, "_TALLY_BLOCK", 64)
    d = parse_descriptor(text)
    rs = build_root_system(d.factors[0])
    level_bytes = max(gf_inv(d).coefficients) * rs.root_count  # int8 rows
    tracemalloc.start()
    try:
        statistics_tally(rs, statistic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * level_bytes, (peak, level_bytes)


def test_no_block_outlives_the_next_level(monkeypatch):
    # with levels of one block and of many, no block of a level is alive
    # once the walk has built the level after it
    import weakref

    import coxstat.rootsys as rootsys

    rs = build_root_system(irreducible("E", 6))
    for block in [rootsys._TALLY_BLOCK, 64]:
        monkeypatch.setattr(rootsys, "_TALLY_BLOCK", block)
        refs = []
        for _, blocks in rootsys._bfs_levels(rs):
            assert [ref for ref in refs if ref() is not None] == [], block
            refs = [weakref.ref(acts) for acts in blocks]


@pytest.mark.parametrize("text", ["H4", "E6"])
def test_records_do_not_depend_on_the_block_size(monkeypatch, text):
    # at 64 rows the larger levels span many blocks, which must not change
    # the records or their order
    import coxstat.rootsys as rootsys

    rs = build_root_system(parse_descriptor(text).factors[0])
    want = list(enumerate_inversion_sets(rs))
    monkeypatch.setattr(rootsys, "_TALLY_BLOCK", 64)
    assert list(enumerate_inversion_sets(rs)) == want


def test_first_records_build_no_later_level(monkeypatch):
    # taking k records walks no level past the one that holds record k
    import coxstat.rootsys as rootsys

    built = []
    walk = rootsys._bfs_levels

    def spy(rs):
        for length, blocks in walk(rs):
            built.append(length)
            yield length, blocks

    monkeypatch.setattr(rootsys, "_bfs_levels", spy)
    monkeypatch.setattr(rootsys, "_TALLY_BLOCK", 64)
    rs = build_root_system(irreducible("E", 7))
    for k in [1, 2, 8, 9, 200, 1000]:
        built.clear()
        records = list(itertools.islice(enumerate_inversion_sets(rs), k))
        assert len(records) == k
        assert built == list(range(records[-1].length + 1)), k


def test_walk_des_plus_ides_tallies_against_closed_forms():
    for text in ["H4", "B6"]:
        d = parse_descriptor(text)
        counts = statistics_tally(build_root_system(d.factors[0]), "des_plus_ides")
        assert sum(counts) == group_order(d), text
        assert counts == counts[::-1], text
        m1, m2 = oracles.moments_of_tally(counts, 2)
        assert (m1, m2 - m1 ** 2) == double_eulerian_moments(d), text


_MIRROR_GROUPS = [irreducible("A", 3), irreducible("A", 4), irreducible("B", 3),
                  irreducible("D", 4), irreducible("H", 3), irreducible("F", 4),
                  irreducible("I2", 2, 7), irreducible("I2", 2, 8)]


@pytest.mark.parametrize("lab", _MIRROR_GROUPS, ids=str)
def test_mirrored_tallies_match_a_full_count(lab):
    # the tallies walk half the levels; element_actions still walks them
    # all.  N is odd for B3, H3 and I2(7), even for the rest
    rs = build_root_system(lab)
    n = rs.rank
    want = {st: [0] * size for st, size in
            [("inv", rs.root_count + 1), ("des", n + 1), ("des_plus_ides", 2 * n + 1)]}
    for act in element_actions(rs):
        des = sum(x < 0 for x in act[:n])
        want["inv"][sum(x < 0 for x in act)] += 1
        want["des"][des] += 1
        want["des_plus_ides"][des + sum(-n <= x < 0 for x in act)] += 1
    for statistic, counts in want.items():
        assert statistics_tally(rs, statistic) == tuple(counts), statistic


@pytest.mark.parametrize("text", ["E6", "H3"])
def test_tallies_build_no_level_past_the_middle(monkeypatch, text):
    # N = 36 for E6 and 15 for H3: both parities of the middle
    import coxstat.rootsys as rootsys

    built = []
    walk = rootsys._bfs_levels

    def spy(rs):
        for length, blocks in walk(rs):
            built.append(length)
            yield length, blocks

    monkeypatch.setattr(rootsys, "_bfs_levels", spy)
    rs = build_root_system(parse_descriptor(text).factors[0])
    for statistic in ["inv", "des", "des_plus_ides"]:
        built.clear()
        statistics_tally(rs, statistic)
        assert built == list(range(rs.root_count // 2 + 1)), statistic


def test_mirrored_tally_checks_the_group_order(monkeypatch):
    import coxstat.rootsys as rootsys

    rs = build_root_system(irreducible("B", 3))
    monkeypatch.setattr(rootsys, "group_order", lambda label: group_order(label) + 1)
    for statistic in ["inv", "des", "des_plus_ides"]:
        with pytest.raises(RuntimeError, match="expected 49"):
            statistics_tally(rs, statistic)


@pytest.mark.parametrize("m", [127, 130])
def test_tallies_in_two_byte_entries(m):
    # N = m > 126 roots hold the action values in int16 entries; both
    # parities of the middle level
    rs = build_root_system(irreducible("I2", 2, m))
    assert statistics_tally(rs, "inv") == (1,) + (2,) * (m - 1) + (1,)
    assert statistics_tally(rs, "des") == (1, 2 * m - 2, 1)
    assert statistics_tally(rs, "des_plus_ides") == (1, 0, 2 * m - 2, 0, 1)


def test_records_increase_past_64_roots():
    # inversion sets wider than one 64-bit word still sort as integers
    for m in [70, 130]:
        recs = _records(irreducible("I2", 2, m))
        assert len(recs) == 2 * m
        keys = [(r.length, r.inversion_set) for r in recs]
        assert all(a < b for a, b in zip(keys, keys[1:])), m


def test_des_plus_ides_symmetry_of_records():
    # the des tally of records equals popcount of right_descents, and the
    # multiset is invariant under swapping right and left
    recs = _records(irreducible("H", 3))
    rd = sorted(bin(r.right_descents).count("1") for r in recs)
    ld = sorted(bin(r.left_descents).count("1") for r in recs)
    assert rd == ld


def test_record_descents_against_composition():
    # right descent at s iff composing with s drops the length
    rs = build_root_system(irreducible("B", 3))
    acts = {a: None for a in element_actions(rs)}
    lengths = {}
    for a in acts:
        lengths[a] = sum(1 for x in a if x < 0)
    simples = [simple_action(rs, s) for s in range(rs.rank)]
    recs = list(enumerate_inversion_sets(rs))
    by_level = {}
    for a in element_actions(rs):
        by_level.setdefault(lengths[a], []).append(a)
    # records arrive sorted by (length, inversion set); rebuild the pairing
    idx = 0
    arranged = []
    for length in sorted(by_level):
        level = sorted(by_level[length], key=lambda a: sum(1 << i for i, x in enumerate(a) if x < 0))
        arranged.extend(level)
    assert len(arranged) == len(recs)
    for a, rec in zip(arranged, recs):
        assert lengths[a] == rec.length
        for s, sa in enumerate(simples):
            right = compose_actions(a, sa)
            assert (lengths[right] < lengths[a]) == bool(rec.right_descents >> s & 1)
            left = compose_actions(sa, a)
            assert (lengths[left] < lengths[a]) == bool(rec.left_descents >> s & 1)


def test_compose_actions_is_group_law():
    rs = build_root_system(irreducible("I2", 2, 5))
    elts = list(element_actions(rs))
    assert len(elts) == 10
    ident = identity_action(rs)
    assert ident in elts
    for a in elts:
        assert compose_actions(a, ident) == a
        assert compose_actions(ident, a) == a
    # closure under composition
    prods = {compose_actions(a, b) for a in elts for b in elts}
    assert prods == set(elts)


# ---------------------------------------------------------------------------
# cache files

def test_tally_file_round_trip(tmp_path):
    counts = (1, 0, 2 ** 130 + 7, 12345678901234567890)
    path = tmp_path / "x.tally"
    write_tally_file(path, counts)
    assert read_tally_file(path) == counts


def test_rootsys_reexports_the_tally_cache():
    from coxstat import rootsys, tallies

    for name in ("cached_tally", "read_tally_file", "write_tally_file"):
        assert getattr(rootsys, name) is getattr(tallies, name)


def walk(statistic):
    """A tally builder for cached_tally: the reflection walk."""
    return lambda label: statistics_tally(build_root_system(label), statistic)


def test_cached_tally_disk_and_memory(tmp_path, monkeypatch):
    from coxstat import tallies

    lab = irreducible("I2", 2, 6)
    monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path))
    monkeypatch.setattr(tallies, "_MEMORY_TALLIES", {})
    a = cached_tally(lab, "des", walk("des"))
    files = list((tmp_path / "tallies").glob("*"))
    assert [f.name for f in files] == ["I2_6.des.tally"]
    # corrupt-resistant: re-read comes from disk on a fresh memory cache
    monkeypatch.setattr(tallies, "_MEMORY_TALLIES", {})
    b = cached_tally(lab, "des", walk("des"))
    assert a == b == (1, 10, 1)


def test_no_disk_cache_without_the_variable(tmp_path, monkeypatch):
    from coxstat import tallies

    monkeypatch.delenv("COXSTAT_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tallies, "_MEMORY_TALLIES", {})
    assert cached_tally(irreducible("I2", 2, 5), "des", walk("des")) == (1, 8, 1)
    assert not list(tmp_path.rglob("*"))


def test_tally_write_does_not_use_a_fixed_temporary_name(tmp_path):
    # a directory squatting on the old fixed temporary name, as a
    # concurrent writer's file would, does not stop the write
    path = tmp_path / "H3.des.tally"
    (tmp_path / "H3.des.tally.tmp").mkdir()
    write_tally_file(path, (1, 59, 59, 1))
    assert read_tally_file(path) == (1, 59, 59, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["H3.des.tally",
                                                          "H3.des.tally.tmp"]


_WRITER = (
    "import sys, time\n"
    "from pathlib import Path\n"
    "from coxstat.tallies import write_tally_file\n"
    "deadline = time.monotonic() + 0.5\n"
    "while time.monotonic() < deadline:\n"
    "    write_tally_file(Path(sys.argv[1]), (1, 59, 59, 1))\n"
)


def test_concurrent_tally_writers_do_not_collide(tmp_path):
    # more writers than cores, each rewriting one file for half a second
    path = tmp_path / "H3.des.tally"
    src = str(Path(coxstat.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(path)], env=env,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(4)]
    errors = [proc.communicate(timeout=60)[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 4, errors
    assert read_tally_file(path) == (1, 59, 59, 1)
    assert [p.name for p in tmp_path.iterdir()] == ["H3.des.tally"]


def test_cache_env_variable(tmp_path, monkeypatch):
    from coxstat import tallies

    lab = irreducible("I2", 2, 11)
    monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path))
    tallies._MEMORY_TALLIES.pop((lab, "inv"), None)
    cached_tally(lab, "inv", walk("inv"))
    assert list((tmp_path / "tallies").glob("*.tally"))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:7])


@pytest.mark.parametrize("corrupt", [
    lambda path: write_tally_file(path, (1, 2, 3)),
    lambda path: write_tally_file(path, (1, 60, 58, 1)),
    lambda path: write_tally_file(path, (1, 59, 59, 2)),
    lambda path: write_tally_file(path, (2, 58, 58, 2)),
    _truncate,
], ids=["wrong length", "not palindromic", "wrong sum", "wrong variance",
        "truncated"])
def test_cached_tally_rebuilds_corrupt_file(tmp_path, monkeypatch, corrupt):
    from coxstat import tallies

    lab = irreducible("H", 3)
    monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path))
    monkeypatch.setattr(tallies, "_MEMORY_TALLIES", {})
    want = cached_tally(lab, "des", walk("des"))
    assert want == (1, 59, 59, 1)
    path = tmp_path / "tallies" / "H3.des.tally"
    corrupt(path)
    monkeypatch.setattr(tallies, "_MEMORY_TALLIES", {})
    with pytest.warns(RuntimeWarning, match="H3.des.tally"):
        assert cached_tally(lab, "des", walk("des")) == want
    assert read_tally_file(path) == want
