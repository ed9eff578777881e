import random
from fractions import Fraction as Fr

import pytest

import oracles
from coxstat.groups import descriptor, irreducible, parse_descriptor
from coxstat.moments import (
    double_coset_sum,
    double_eulerian_moments,
    eulerian_moments,
    mahonian_cumulants,
    mahonian_moments,
    mahonian_summary,
    moments_from_polynomial,
    second_moment_inv_type_b,
)
from coxstat.polynomials import ExactPolynomial, gf_des, gf_inv
from coxstat.rootsys import (
    build_root_system,
    compose_actions,
    element_actions,
    enumerate_inversion_sets,
    simple_action,
    statistics_tally,
)


# ---------------------------------------------------------------------------
# inversion moments

def test_mahonian_closed_forms_per_family():
    # published per-family forms, recomputed here from scratch
    for n in range(1, 9):
        mean, var = mahonian_moments(parse_descriptor(f"A{n}"))
        assert mean == Fr(n * (n + 1), 4)
        assert var == Fr(2 * n ** 3 + 9 * n ** 2 + 7 * n, 72)
    for n in range(2, 9):
        mean, var = mahonian_moments(parse_descriptor(f"B{n}"))
        assert mean == Fr(n * n, 2)
        assert var == Fr(4 * n ** 3 + 6 * n ** 2 - n, 36)
    for n in range(4, 9):
        mean, var = mahonian_moments(parse_descriptor(f"D{n}"))
        assert mean == Fr(n * (n - 1), 2)
        assert var == Fr(4 * n ** 3 - 3 * n ** 2 - n, 36)
    fixed = {
        "E6": (18, Fr(29)), "E7": (Fr(63, 2), Fr(287, 4)), "E8": (60, Fr(650, 3)),
        "F4": (12, Fr(61, 3)), "H3": (Fr(15, 2), Fr(137, 12)), "H4": (30, Fr(361, 3)),
    }
    for text, (mean_want, var_want) in fixed.items():
        mean, var = mahonian_moments(parse_descriptor(text))
        assert mean == mean_want, text
        assert var == var_want, text
    for m in range(3, 13):
        mean, var = mahonian_moments(parse_descriptor(f"I2({m})"))
        assert mean == Fr(m, 2)
        assert var == Fr(m * m + 2, 12)


def test_mahonian_moments_additive_and_match_polynomial():
    for text in ["A3", "B3", "D4", "H3", "I2(8)", "A2 x B2 x I2(5)", "A1^4"]:
        d = parse_descriptor(text)
        mean, var = mahonian_moments(d)
        s = moments_from_polynomial(gf_inv(d))
        assert (mean, var) == (s.mean, s.variance), text


def test_mahonian_moments_match_enumeration():
    for family, length, text in [("A", 4, "A3"), ("B", 3, "B3"), ("D", 4, "D4")]:
        counts = oracles.tally(family, length, lambda w: oracles.inv_of(w, family))
        mu1, mu2 = oracles.moments_of_tally(counts, 2)
        mean, var = mahonian_moments(parse_descriptor(text))
        assert mean == mu1
        assert var == mu2 - mu1 ** 2


def test_second_moment_type_b():
    assert second_moment_inv_type_b(2) == Fr(11, 2)
    for n in range(2, 7):
        d = parse_descriptor(f"B{n}")
        s = moments_from_polynomial(gf_inv(d))
        assert second_moment_inv_type_b(n) == s.variance + s.mean ** 2
    with pytest.raises(ValueError):
        second_moment_inv_type_b(1)


def test_mahonian_cumulants_closed_vs_polynomial():
    for text in ["A1", "A4", "B3", "I2(7)", "A2 x I2(4)", "H3"]:
        d = parse_descriptor(text)
        closed = mahonian_cumulants(d)
        poly = moments_from_polynomial(gf_inv(d)).cumulants
        assert closed == poly, text
        assert closed[3] == closed[5] == 0


def test_mahonian_cumulants_a1_by_hand():
    # single uniform on {0, 1}: variance 1/4, kappa4 = -1/8, kappa6 = 1/4
    c = mahonian_cumulants(parse_descriptor("A1"))
    assert c[2] == Fr(1, 4)
    assert c[4] == Fr(-1, 8)
    assert c[6] == Fr(1, 4)


@pytest.mark.parametrize("text", ["A1", "A3", "A5", "B4", "I2(9)", "E6", "H3",
                                  "A3 x B2"])
def test_mahonian_cumulants_high_orders_match_polynomial(text):
    # the Bernoulli closed form holds at every order, not only up to 6
    d = parse_descriptor(text)
    closed = mahonian_cumulants(d, k_max=12)
    assert set(closed) == set(range(2, 13))
    assert closed == moments_from_polynomial(gf_inv(d), k_max=12).cumulants
    assert all(closed[k] == 0 for k in range(3, 13, 2))
    assert closed[2] == mahonian_cumulants(d)[2]


def test_mahonian_cumulants_reject_order_below_two():
    with pytest.raises(ValueError):
        mahonian_cumulants(parse_descriptor("A3"), k_max=1)


def test_moments_module_does_not_import_polynomials():
    # one route per quantity: the closed forms never reach for gf_inv
    import ast
    import inspect

    from coxstat import moments

    tree = ast.parse(inspect.getsource(moments))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "groups" in imported
    assert "polynomials" not in imported


# ---------------------------------------------------------------------------
# descent moments

def test_eulerian_closed_forms():
    for n in range(2, 9):
        assert eulerian_moments(parse_descriptor(f"A{n}")) == (Fr(n, 2), Fr(n + 2, 12))
    for n in range(2, 9):
        assert eulerian_moments(parse_descriptor(f"B{n}")) == (Fr(n, 2), Fr(n + 1, 12))
    for n in range(4, 9):
        assert eulerian_moments(parse_descriptor(f"D{n}")) == (Fr(n, 2), Fr(n + 2, 12))
    assert eulerian_moments(parse_descriptor("F4")) == (2, Fr(5, 12))
    assert eulerian_moments(parse_descriptor("H3")) == (Fr(3, 2), Fr(17, 60))
    assert eulerian_moments(parse_descriptor("H4")) == (2, Fr(11, 30))
    for m in range(3, 13):
        assert eulerian_moments(parse_descriptor(f"I2({m})")) == (1, Fr(1, m))
    for n in (6, 7, 8):
        assert eulerian_moments(parse_descriptor(f"E{n}")) == (Fr(n, 2), Fr(n + 2, 12))
    assert eulerian_moments(parse_descriptor("A1")) == (Fr(1, 2), Fr(1, 4))


def test_eulerian_moments_match_polynomial():
    for text in ["A1", "A5", "B4", "D5", "F4", "H3", "H4", "I2(9)", "E6",
                 "A2 x B2", "A1 x I2(6)"]:
        d = parse_descriptor(text)
        mean, var = eulerian_moments(d)
        s = moments_from_polynomial(gf_des(d))
        assert (mean, var) == (s.mean, s.variance), text


def test_double_eulerian_closed_forms():
    for n in range(2, 8):
        want = Fr(n + 2, 6) + Fr(n, n + 1)
        assert double_eulerian_moments(parse_descriptor(f"A{n}")) == (n, want)
    for n in range(2, 8):
        assert double_eulerian_moments(parse_descriptor(f"B{n}")) == (n, Fr(n + 4, 6))
    for n in range(4, 8):
        want = Fr(n + 2, 6) + Fr(n, 2 * n - 2)
        assert double_eulerian_moments(parse_descriptor(f"D{n}")) == (n, want)
    assert double_eulerian_moments(parse_descriptor("E6")) == (6, Fr(11, 6))
    assert double_eulerian_moments(parse_descriptor("E7")) == (7, Fr(17, 9))
    assert double_eulerian_moments(parse_descriptor("E8")) == (8, Fr(29, 15))
    assert double_eulerian_moments(parse_descriptor("F4")) == (4, Fr(7, 6))
    assert double_eulerian_moments(parse_descriptor("H3")) == (3, Fr(13, 15))
    assert double_eulerian_moments(parse_descriptor("H4")) == (4, Fr(13, 15))
    for m in range(3, 13):
        assert double_eulerian_moments(parse_descriptor(f"I2({m})")) == (2, Fr(4, m))
    assert double_eulerian_moments(parse_descriptor("A1")) == (1, 1)


def test_double_eulerian_matches_two_sided_tally():
    for text in ["A3", "B3", "D4", "H3", "F4", "I2(7)"]:
        d = parse_descriptor(text)
        tally = statistics_tally(build_root_system(d.factors[0]), "des_plus_ides")
        s = moments_from_polynomial(ExactPolynomial(tally))
        mean, var = double_eulerian_moments(d)
        assert (mean, var) == (s.mean, s.variance), text


def test_double_eulerian_additive_on_products():
    a = parse_descriptor("A2")
    b = parse_descriptor("B2")
    ma, va = double_eulerian_moments(a)
    mb, vb = double_eulerian_moments(b)
    m, v = double_eulerian_moments(a * b)
    assert (m, v) == (ma + mb, va + vb)


# ---------------------------------------------------------------------------
# histogram route details

def test_moments_from_polynomial_bernoulli():
    s = moments_from_polynomial(ExactPolynomial((1, 1)), k_max=6)
    assert s.mean == Fr(1, 2)
    assert s.variance == Fr(1, 4)
    assert s.cumulants[4] == Fr(-1, 8)
    assert s.cumulants[6] == Fr(1, 4)
    assert s.central_moments[4] == Fr(1, 16)
    # normalized: kappa_k / sigma^k
    assert s.normalized_cumulants[4] == -2.0
    assert s.normalized_cumulants[3] == 0.0


def test_moments_from_polynomial_point_mass():
    s = moments_from_polynomial(ExactPolynomial((0, 0, 5)), k_max=4)
    assert s.mean == 2
    assert s.variance == 0
    assert s.normalized_cumulants == {}
    with pytest.raises(ValueError):
        moments_from_polynomial(ExactPolynomial(()))


def _histograms():
    rng = random.Random(11)
    yield from (gf_inv(t) for t in ["A1", "A9", "B6 x I2(11)", "E8", "D30"])
    yield from (gf_des(t) for t in ["A1", "A7", "B40", "D25", "I2(9) x A3"])
    yield from (ExactPolynomial(c) for c in [(1,), (0, 0, 5), (3, 0, 0, 1), (0, 2, 7)])
    for length in (2, 5, 17, 64):
        yield ExactPolynomial(tuple(rng.choice((0, 1, rng.randrange(10 ** 30)))
                                    for _ in range(length - 1)) + (1,))


@pytest.mark.parametrize("k_max", [2, 5, 8])
def test_moments_from_polynomial_matches_the_fraction_oracle(k_max):
    # raw moments, central moments and cumulants in Fractions, bit for bit
    for f in _histograms():
        s = moments_from_polynomial(f, k_max=k_max)
        mean, central, cumulants, normalized = oracles.summary_of_histogram(
            list(f.coefficients), k_max)
        assert (s.mean, s.variance) == (mean, central[2]), f
        assert s.central_moments == central, f
        assert s.cumulants == cumulants, f
        assert repr(s.normalized_cumulants) == repr(normalized), f
        assert all(type(v) is Fr for v in [s.mean, *central.values(), *cumulants.values()])


_SUMMARY_GROUPS = ["A1", "A5", "B4", "D6", "E6", "F4", "H4", "I2(7)", "A3 x I2(7) x B2", "E8"]


@pytest.mark.parametrize("k_max", [2, 6, 8])
def test_mahonian_summary_matches_the_histogram(k_max):
    for text in _SUMMARY_GROUPS:
        closed = mahonian_summary(text, k_max=k_max)
        hist = moments_from_polynomial(gf_inv(text), k_max=k_max)
        assert closed == hist, text
        assert repr(closed) == repr(hist), text
    with pytest.raises(ValueError, match="k_max must be at least 2"):
        mahonian_summary("A3", k_max=1)


def test_cumulants_additive_over_products():
    # cumulants of independent sums add; gf product is the convolution
    f = gf_inv(parse_descriptor("A2"))
    g = gf_inv(parse_descriptor("B2"))
    sf = moments_from_polynomial(f, k_max=6).cumulants
    sg = moments_from_polynomial(g, k_max=6).cumulants
    sfg = moments_from_polynomial(f * g, k_max=6).cumulants
    for k in range(2, 7):
        assert sfg[k] == sf[k] + sg[k]


# ---------------------------------------------------------------------------
# double cosets

def test_double_coset_sum_closed_values():
    assert double_coset_sum(parse_descriptor("A2")) == 8
    assert double_coset_sum(parse_descriptor("B3")) == 120
    assert double_coset_sum(parse_descriptor("H3")) == 288
    assert double_coset_sum(irreducible("I2", 2, 5)) == 12
    with pytest.raises(ValueError):
        double_coset_sum(parse_descriptor("A1 x A1"))


def test_moments_accept_descriptor_strings():
    assert mahonian_moments("E6") == (18, 29)
    assert eulerian_moments("B4") == eulerian_moments(parse_descriptor("B4"))
    assert double_eulerian_moments("H3") == (3, Fr(13, 15))
    assert double_coset_sum("A2") == 8


def test_double_coset_sum_matches_window_enumeration():
    # orbit count over all ordered generator pairs, classical windows
    for text, family, length in [("A2", "A", 3), ("A3", "A", 4), ("B3", "B", 3)]:
        d = parse_descriptor(text)
        positions = range(1, length) if family == "A" else range(length)
        gens = [oracles.simple_reflection(family, length, pos) for pos in positions]
        elements = list(oracles.iter_windows(family, length))
        total = 0
        for gs in gens:
            for gt in gens:
                total += oracles.double_coset_count(elements, [gs], [gt])
        assert total == double_coset_sum(d), text


def test_double_coset_sum_matches_reflection_enumeration_h3():
    rs = build_root_system(irreducible("H", 3))
    elements = list(element_actions(rs))
    simples = [simple_action(rs, s) for s in range(3)]
    total = 0
    for gs in simples:
        for gt in simples:
            steps = [
                lambda x, g=gs: compose_actions(g, x),
                lambda x, g=gt: compose_actions(x, g),
            ]
            total += oracles.orbit_count(elements, steps)
    assert total == 288 == double_coset_sum(irreducible("H", 3))


def test_double_coset_sum_equals_descent_pair_counts():
    # each (s, t) double coset has a unique maximal element (s a left and
    # t a right descent) and a unique minimal one (neither); both triple
    # counts must give the closed form
    for lab in [irreducible("A", 3), irreducible("B", 3), irreducible("H", 3),
                irreducible("I2", 2, 8)]:
        rs = build_root_system(lab)
        n = rs.rank
        via_max = 0
        via_min = 0
        for rec in enumerate_inversion_sets(rs):
            r = bin(rec.right_descents).count("1")
            l = bin(rec.left_descents).count("1")
            via_max += l * r
            via_min += (n - l) * (n - r)
        want = double_coset_sum(lab)
        assert via_max == want, lab
        assert via_min == want, lab


def test_lemma_style_subgroup_factorization():
    # |W| = |W_J| * |{w : Des(w) avoids J}| for every J, window types
    from coxstat.elements import descent_positions

    for family, length in [("A", 4), ("B", 3)]:
        positions = list(range(1, length)) if family == "A" else list(range(length))
        windows = list(oracles.iter_windows(family, length))
        order = len(windows)
        import itertools

        for r in range(len(positions) + 1):
            for J in itertools.combinations(positions, r):
                gens = [oracles.simple_reflection(family, length, pos) for pos in J]
                wj = oracles.generated_subgroup(gens, length) if gens else {tuple(range(1, length + 1))}
                dj = 0
                for w in windows:
                    des = set(descent_positions(w, family))
                    if not des & set(J):
                        dj += 1
                assert len(wj) * dj == order, (family, J)
