import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import coxstat
from coxstat.cli import main
from coxstat.groups import (
    TRIVIAL,
    degrees,
    descriptor,
    group_order,
    parse_descriptor,
    rank,
)
from coxstat.elements import des_count, ides_count, iter_windows
from coxstat.moments import double_eulerian_moments, eulerian_moments, moments_from_polynomial
from coxstat.polynomials import (
    _EXCEPTIONAL_ROWS,
    TWO_SIDED_RANK_CAP,
    ExactPolynomial,
    _two_sided_counts,
    bernoulli_parameters,
    descent_root_bag,
    gf_des,
    gf_des_plus_ides,
    gf_inv,
    negated_real_roots,
    product,
    structural_checks,
    z_integer,
)
from coxstat.rootsys import build_root_system, enumerate_inversion_sets, statistics_tally
from coxstat.verify import _parabolic_des_row, run_suite


def P(*coeffs):
    return ExactPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# polynomial basics

def test_exact_polynomial_normalization_and_eval():
    f = P(1, 2, 3, 0, 0)
    assert f.coefficients == (1, 2, 3)
    assert f.degree == 2
    assert f(10) == 321
    assert f(0) == 1
    from fractions import Fraction

    assert f(Fraction(1, 2)) == Fraction(11, 4)
    assert abs(f(0.5) - 2.75) < 1e-15
    with pytest.raises(ValueError):
        P(1, -1)


def test_exact_polynomial_validation_errors():
    assert P(0, 0, 0).is_zero and P().is_zero
    assert P("3", 2, 0).coefficients == (3, 2)
    assert P(0, 5, 0, 0).coefficients == (0, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        P(0, 0, -1, 0)
    with pytest.raises(ValueError):
        P(1, "x")
    with pytest.raises(TypeError):
        P(1, None)


def test_product_of_one_factor_is_that_factor():
    f = P(1, 4, 1)
    assert product([f]) is f
    assert product([]) == P(1)
    assert product(iter([f, P(1, 1)])).coefficients == (1, 5, 5, 1)


def test_multiplication_and_json():
    f = P(1, 1) * P(1, 1)
    assert f.coefficients == (1, 2, 1)
    g = ExactPolynomial.from_json(f.to_json())
    assert g == f
    assert ExactPolynomial.from_json('["1", "4", "1"]').coefficients == (1, 4, 1)
    assert ExactPolynomial.from_json("[1, 4, 1]").coefficients == (1, 4, 1)
    with pytest.raises(ValueError):
        ExactPolynomial.from_json('{"a": 1}')


def test_z_integer():
    assert z_integer(1).coefficients == (1,)
    assert z_integer(4).coefficients == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        z_integer(0)


# ---------------------------------------------------------------------------
# inversion generating functions

def test_gf_inv_small_against_window_tallies():
    cases = [
        ("A3", "A", 4),
        ("A4", "A", 5),
        ("B2", "B", 2),
        ("B3", "B", 3),
        ("D4", "D", 4),
    ]
    for text, family, length in cases:
        d = parse_descriptor(text)
        want = oracles.tally(family, length, lambda w: oracles.inv_of(w, family))
        assert list(gf_inv(d).coefficients) == want, text
    assert gf_inv(parse_descriptor("B2")).coefficients == (1, 2, 2, 2, 1)


def test_gf_inv_of_products_multiplies():
    d = parse_descriptor("A2 x B2")
    assert gf_inv(d) == gf_inv(parse_descriptor("A2")) * gf_inv(parse_descriptor("B2"))
    assert gf_inv(descriptor()) .coefficients == (1,)


def test_gf_accepts_descriptor_strings():
    # str, label, descriptor all address the same group
    assert gf_inv("A3 x B2") == gf_inv(parse_descriptor("A3 x B2"))
    assert gf_des("I2(7)") == gf_des(parse_descriptor("I2(7)"))
    assert gf_des_plus_ides("A2") == gf_des_plus_ides(parse_descriptor("A2"))
    with pytest.raises(ValueError, match="unrecognized factor"):
        gf_inv("Q9")


def _random_descriptor(rng):
    factors = []
    for _ in range(rng.randint(1, 4)):
        family = rng.choice("ABDEFHI")
        if family == "I":
            factors.append(("I2", 2, rng.randint(3, 200)))
        else:
            n = {"A": rng.randint(1, 12), "B": rng.randint(2, 10),
                 "D": rng.randint(4, 10), "E": rng.randint(6, 8),
                 "F": 4, "H": rng.randint(3, 4)}[family]
            factors.append((family, n))
    return descriptor(*factors)


@pytest.mark.parametrize("seed", range(6))
def test_gf_inv_window_sums_match_schoolbook_product(seed):
    rng = random.Random(seed)
    cases = [TRIVIAL, parse_descriptor("E8 x H4"),
             parse_descriptor(f"A1^{rng.randint(1, 40)}"),
             parse_descriptor(f"I2({rng.randint(3, 200)})"), parse_descriptor("I2(200)")]
    cases += [_random_descriptor(rng) for _ in range(8)]
    for d in cases:
        want = product(z_integer(v) for v in degrees(d))
        assert gf_inv(d) == want, str(d)
    assert gf_inv(TRIVIAL).coefficients == (1,)


def test_gf_inv_global_shape():
    for text in ["A5", "B4", "D5", "E6", "F4", "H3", "H4", "I2(9)", "A1^3 x B2"]:
        d = parse_descriptor(text)
        f = gf_inv(d)
        assert f(1) == group_order(d)
        rep = structural_checks(f)
        assert rep.palindromic and rep.unimodal and rep.log_concave
        assert rep.no_internal_zeros


# ---------------------------------------------------------------------------
# descent generating functions

def test_gf_des_type_a_rows():
    assert gf_des(parse_descriptor("A1")).coefficients == (1, 1)
    assert gf_des(parse_descriptor("A2")).coefficients == (1, 4, 1)
    assert gf_des(parse_descriptor("A3")).coefficients == (1, 11, 11, 1)
    assert gf_des(parse_descriptor("A4")).coefficients == (1, 26, 66, 26, 1)


def test_gf_des_type_b_rows():
    assert gf_des(parse_descriptor("B2")).coefficients == (1, 6, 1)
    assert gf_des(parse_descriptor("B3")).coefficients == (1, 23, 23, 1)


def test_gf_des_dihedral():
    assert gf_des(parse_descriptor("I2(7)")).coefficients == (1, 12, 1)
    assert gf_des(parse_descriptor("I2(3)")) == gf_des(parse_descriptor("A2"))


def test_gf_des_recurrences_match_reflection_walk():
    # the independent reflection walk, not the window model
    for text in ["A6", "B5", "D5", "D6"]:
        d = parse_descriptor(text)
        got = gf_des(d).coefficients
        want = statistics_tally(build_root_system(d.factors[0]), "des")
        assert got == want, text


@pytest.mark.parametrize("c", [1, 2])
def test_eulerian_rows_match_the_recurrence(c):
    # power-sum differences against the Eulerian recurrence, both
    # parities of the mirror and the ranks the benchmarks reach
    from coxstat.polynomials import _eulerian_row

    want = oracles.eulerian_rows(c, 301)
    for n in [*range(81), 150, 301]:
        assert _eulerian_row(c, n) == want[n], (c, n)


def test_gf_des_type_d_matches_the_b_minus_a_relation():
    # every rank to D120 and spot ranks of the benchmark's D240-D300 band
    want = oracles.descent_rows_d(300)
    for n in [*range(4, 121), 240, 253, 266, 279, 291, 300]:
        assert list(gf_des(f"D{n}").coefficients) == want[n], n


def test_verify_gf_des_catches_a_wrong_recurrence(monkeypatch):
    import coxstat.polynomials as polynomials

    right_row = polynomials._eulerian_row
    monkeypatch.setattr(polynomials, "_eulerian_row",
                        lambda c, n: [a + (c == 2 and k == 1)
                                      for k, a in enumerate(right_row(c, n))])
    out = io.StringIO()
    assert run_suite("gf-des", stream=out) > 0
    assert any(line.startswith("FAIL - gf-des: B")
               for line in out.getvalue().splitlines()), out.getvalue()
    assert main(["verify", "--suite", "gf-des"]) == 1


def test_gf_des_runs_no_window_enumeration():
    # a fresh process, so nothing computed earlier in this one can hide
    # a window enumeration on the first descent call
    code = (
        "import coxstat.elements\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('window enumeration in production')\n"
        "coxstat.elements.iter_windows = refuse\n"
        "from coxstat.polynomials import gf_des\n"
        "for text in ('A6', 'B6', 'D6'):\n"
        "    gf_des(text)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(coxstat.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_gf_des_exceptional_and_shape():
    e6 = gf_des(parse_descriptor("E6"))
    assert e6.coefficients == (1, 1272, 12183, 24928, 12183, 1272, 1)
    for text in ["A5", "B4", "D4", "F4", "H3", "H4", "I2(12)", "A2 x B2"]:
        d = parse_descriptor(text)
        f = gf_des(d)
        assert f.degree == rank(d)
        assert f(1) == group_order(d)
        assert structural_checks(f).palindromic


def test_gf_des_e8_from_the_table():
    d = parse_descriptor("E8")
    f = gf_des(d)
    assert f.coefficients == _parabolic_des_row(d.factors[0])
    assert f(1) == group_order(d) == 696729600
    assert f.coefficients == f.coefficients[::-1]
    s = moments_from_polynomial(f, k_max=2)
    assert (s.mean, s.variance) == eulerian_moments(d) == (4, Fraction(5, 6))


@pytest.mark.parametrize("group", ["E6", "E7", "F4", "H3", "H4"])
def test_exceptional_rows_match_the_reflection_walk(group):
    rs = build_root_system(parse_descriptor(group).factors[0])
    des, des_plus_ides = _EXCEPTIONAL_ROWS[group]
    assert des == statistics_tally(rs, "des")
    assert des_plus_ides == statistics_tally(rs, "des_plus_ides")


@pytest.mark.parametrize("group", ["A1", "A6", "B2", "B5", "D4", "D6", "I2(4)", "I2(5)",
                                   "I2(7)"])
def test_parabolic_sum_matches_gf_des(group):
    # the classical and dihedral shapes; the gf-des suite of verify, pinned
    # in tests/data/verify_full.txt, checks E, F and H
    d = parse_descriptor(group)
    assert _parabolic_des_row(d.factors[0]) == gf_des(d).coefficients


def test_gf_des_plus_ides_type_a_and_products():
    want = oracles.tally(
        "A", 4, lambda w: oracles.des_of(w, "A") + oracles.ides_of(w, "A")
    )
    got = gf_des_plus_ides(parse_descriptor("A3"))
    assert list(got.coefficients) == want
    assert got.degree == 2 * rank(parse_descriptor("A3"))
    # one factor per A1, each contributing 0 or 2
    assert gf_des_plus_ides(parse_descriptor("A1^2")).coefficients == (1, 0, 2, 0, 1)


@pytest.mark.parametrize("group", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                                   "D4", "D5", "D6"])
def test_two_sided_counts_match_the_window_tables(group):
    # N(i, j) = sum_(a<=i, b<=j) W_ab C(i-a+e-1, e-1) C(j-b+e-1, e-1), with
    # W_ab the number of windows with des a and ides b; N_D is checked here,
    # not proved
    label = parse_descriptor(group).factors[0]
    family, n = label.family, label.rank
    joint = {}
    for w in iter_windows(family, n + 1 if family == "A" else n):
        key = des_count(w, family), ides_count(w, family)
        joint[key] = joint.get(key, 0) + 1
    e, count = _two_sided_counts(family, n, 10)
    for i in range(6):
        for j in range(6):
            want = sum(v * math.comb(i - a + e - 1, e - 1) * math.comb(j - b + e - 1, e - 1)
                       for (a, b), v in joint.items() if a <= i and b <= j)
            assert count(i, j) == want, (i, j)


@pytest.mark.parametrize("group", ["A100", "B60", "D60", "I2(4000)"])
def test_two_sided_rows_at_size(group):
    d = parse_descriptor(group)
    f = gf_des_plus_ides(d)
    assert f.degree == 2 * rank(d)
    assert f(1) == group_order(d)
    assert f.coefficients == f.coefficients[::-1]
    s = moments_from_polynomial(f, k_max=2)
    assert (s.mean, s.variance) == double_eulerian_moments(d)


def test_two_sided_counts_match_the_walk_on_d7():
    # the walk's (des, ides) table on D7's 322560 elements against the one
    # rebuilt from N_D: W(s, t) = N(s, t) ((1 - s)(1 - t))^e, each factor
    # (1 - s) a running difference down the columns, (1 - t) along the rows
    n = 7
    walk = [[0] * (n + 1) for _ in range(n + 1)]
    for r in enumerate_inversion_sets(build_root_system(parse_descriptor("D7").factors[0])):
        walk[bin(r.right_descents).count("1")][bin(r.left_descents).count("1")] += 1
    e, count = _two_sided_counts("D", n, 2 * n)
    table = [[count(i, j) for j in range(n + 1)] for i in range(n + 1)]
    for _ in range(e):
        table = [table[0], *([a - b for a, b in zip(row, prev)]
                             for prev, row in zip(table, table[1:]))]
        table = [[row[0], *(b - a for a, b in zip(row, row[1:]))] for row in table]
    assert table == walk


def test_two_sided_rows_stop_at_the_rank_cap():
    n = TWO_SIDED_RANK_CAP + 1
    for family in "ABD":
        with pytest.raises(ValueError, match=f"rank {n} exceeds the two-sided count cap {n - 1}"):
            gf_des_plus_ides(parse_descriptor(f"{family}{n}"))


# ---------------------------------------------------------------------------
# structure report

def test_structural_checks_cases():
    rep = structural_checks(P(1, 4, 1))
    assert (rep.palindromic, rep.unimodal, rep.log_concave,
            rep.no_internal_zeros) == (True, True, True, True)
    rep = structural_checks(P(1, 0, 0, 1))
    assert rep.palindromic and not rep.no_internal_zeros
    assert rep.log_concave  # vacuously; the zero flag is the warning
    assert not structural_checks(P(1, 0, 0, 1)).unimodal
    rep = structural_checks(P(2, 1, 3))
    assert not rep.unimodal and not rep.log_concave
    assert not structural_checks(P(1, 2, 3)).palindromic
    assert structural_checks(P(1, 2, 3)).unimodal
    with pytest.raises(ValueError):
        structural_checks(ExactPolynomial(()))


# ---------------------------------------------------------------------------
# real roots

def test_roots_of_power_of_one_plus_z():
    bag = negated_real_roots(P(1, 5, 10, 10, 5, 1))
    assert bag.values == (1.0,) * 5
    assert bag.residual_bound == 0.0


def test_roots_dihedral_quadratic():
    for m in [3, 4, 7, 12, 30]:
        bag = negated_real_roots(gf_des(parse_descriptor(f"I2({m})")))
        q = m - 1 + math.sqrt((m - 1) ** 2 - 1)
        assert len(bag.values) == 2
        assert abs(bag.values[0] - q) < 1e-9
        assert abs(bag.values[1] - 1 / q) < 1e-12
        assert bag.residual_bound <= 1e-12


def test_roots_a2_bernoulli_parameters():
    bag = negated_real_roots(P(1, 4, 1))
    assert abs(bag.values[0] - (2 + math.sqrt(3))) < 1e-12
    ps = bernoulli_parameters(bag)
    assert abs(ps[0] - 0.2113248654) < 1e-9
    assert abs(ps[1] - 0.7886751346) < 1e-9
    assert abs(sum(ps) - 1.0) < 1e-12  # rank/2 for A2


def test_roots_reconstruct_polynomial():
    for text in ["A4", "B4", "D4", "H3", "F4", "A6"]:
        f = gf_des(parse_descriptor(text))
        bag = negated_real_roots(f)
        coeffs = [1.0]
        for q in bag.values:
            nxt = [0.0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c * q
                nxt[i + 1] += c
            coeffs = nxt
        scale = max(f.coefficients)
        for got, want in zip(coeffs, f.coefficients):
            assert abs(got - want) <= 1e-9 * scale, text


def test_roots_non_palindromic():
    bag = negated_real_roots(P(1, 6, 11, 6))
    assert [round(v, 6) for v in bag.values] == [1.0, 0.5, pytest.approx(1 / 3, abs=1e-6)]


def test_roots_failure_is_loud():
    with pytest.raises(ValueError, match="real-rootedness not confirmed"):
        negated_real_roots(P(1, 1, 1))
    with pytest.raises(ValueError):
        negated_real_roots(ExactPolynomial(()))
    with pytest.raises(ValueError, match="constant term"):
        negated_real_roots(P(0, 1))


def test_roots_on_split_points_are_exact():
    # 64 (z + 3)(z + 1)(z + 3/4)(z + 5/8)(z + 1/2): every root is dyadic
    bag = negated_real_roots(P(45, 282, 671, 746, 376, 64))
    assert bag.values == (3.0, 1.0, 0.75, 0.625, 0.5)
    assert bag.residual_bound == 0.0


@pytest.mark.parametrize("text", ["A2", "A7", "B11", "D13", "I2(17)", "F4", "E6",
                                  "A30", "B30", "D30", "A60"])
def test_roots_are_nearest_floats(text):
    # h(x) = f(-x) changes sign between the midpoints to each root's
    # float neighbours, so no other float is closer to a true root
    f = gf_des(parse_descriptor(text))
    h = [c if i % 2 == 0 else -c for i, c in enumerate(f.coefficients)]

    def sign(x):
        acc = Fraction(0)
        for c in reversed(h):
            acc = acc * x + c
        return (acc > 0) - (acc < 0)

    for q in negated_real_roots(f).values:
        lo = (Fraction(q) + Fraction(math.nextafter(q, 0))) / 2
        hi = (Fraction(q) + Fraction(math.nextafter(q, math.inf))) / 2
        assert sign(lo) * sign(hi) < 0, (text, q)


_ROOT_GROUPS = {
    "A": [f"A{n}" for n in range(1, 61)],
    "B": [f"B{n}" for n in range(2, 41)],
    "D": [f"D{n}" for n in range(4, 41)],
    "I2": [f"I2({m})" for m in range(3, 41)],
    "EFH": ["E6", "F4", "H3", "H4"],
}


# the oracle's bags of these groups are committed (oracles.write_root_bags)
_COMMITTED_BAGS = [f"A{n}" for n in oracles.ROOT_BAG_RANKS]


@pytest.mark.parametrize("family", _ROOT_GROUPS)
def test_descent_root_bag_matches_the_bisection_oracle(family):
    # every value and the residual bound, bit for bit, against exact gcds,
    # bisection of each isolating interval and a Fraction residual
    for text in _ROOT_GROUPS[family]:
        if text in _COMMITTED_BAGS:
            continue
        bag = descent_root_bag(text)
        want = oracles.negated_roots(list(gf_des(text).coefficients))
        assert (bag.values, bag.residual_bound) == want, text


def test_descent_root_bag_matches_the_committed_oracle_bags():
    # the same comparison where the oracle is slowest, against its output
    # written as float.hex (regenerate with `python tests/oracles.py`)
    bags = oracles.read_root_bags()
    assert sorted(bags) == sorted(_COMMITTED_BAGS)
    for text, want in bags.items():
        bag = descent_root_bag(text)
        assert (bag.values, bag.residual_bound) == want, text


_INV_GROUPS = {
    **_ROOT_GROUPS,
    # odd and even total degree, repeated degrees, factors in any order, and
    # one product of 300, 800, 1500 and 2500 positive roots as the benchmark
    # draws them
    "products": ["A1", "A2", "B2", "A1^4 x B4 x B4", "A1^5 x B4 x B4",
                 "A1^3 x A2^3 x I2(5)^2", "B3 x B3 x D4 x D4 x H3", "E8 x E8 x A1",
                 "I2(4) x I2(7)", "A20 x B8 x I2(26)", "B20 x D16 x I2(160)",
                 "A40 x D25 x I2(80)", "A60 x B25 x I2(45)"],
}


@pytest.mark.parametrize("family", _INV_GROUPS)
def test_gf_inv_half_sums_match_the_full_window_sums(family):
    for text in _INV_GROUPS[family]:
        d = parse_descriptor(text)
        assert list(gf_inv(d).coefficients) == oracles.inv_polynomial(degrees(d)), text


def _linear_product(pairs):
    """prod (b + a z) over the pairs (b, a): the roots are -b / a."""
    return product(P(b, a) for b, a in pairs)


def test_roots_match_the_oracle_on_awkward_polynomials():
    # roots halfway between two floats (ties), dyadic roots, clusters,
    # repeats, a wide spread and roots 2**-1100 apart (isolated past
    # depth 1024, so the interval ends have more bits than a float
    # exponent spans) take every branch of the float certification and
    # of the bisection fallback
    rng = random.Random(5)
    far = 2 ** 1100
    cases = [
        [(1, 3), (far + 3, 3 * far)],
        [(3, 1), (3 * far + 1, far), (1, 1)],
        [(1, 3), (far + 3, 3 * far), (2 * far + 3, 6 * far)],
        [(2 ** 53 + 1, 2 ** 53), (1, 1)],
        [(3 * 2 ** 52 + 1, 2 ** 52), (2 ** 53 + 1, 2 ** 53), (5, 1)],
        [(10 ** 12, 10 ** 12), (10 ** 12 + 1, 10 ** 12), (10 ** 12 + 2, 10 ** 12)],
        [(1, 1)] * 3 + [(2, 1)] * 2 + [(3, 7)],
        [(1, 2 ** 40), (2 ** 40, 1), (3, 7), (1, 1)],
        [(45, 64), (3, 8), (1, 2)],
    ]
    cases += [[(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
               for _ in range(rng.randint(1, 9))] for _ in range(40)]
    for pairs in cases:
        f = _linear_product(pairs)
        values, residual = oracles.negated_roots(list(f.coefficients))
        if residual > 1e-12:
            with pytest.raises(ValueError, match="residual"):
                negated_real_roots(f)
            continue
        bag = negated_real_roots(f)
        assert (bag.values, bag.residual_bound) == (values, residual), pairs


def test_repeated_roots_take_the_exact_gcd(monkeypatch):
    import coxstat.polynomials as polynomials

    calls = []
    exact = polynomials._gcd

    def counted(a, b):
        calls.append(len(a) - 1)
        return exact(a, b)

    monkeypatch.setattr(polynomials, "_gcd", counted)
    f = gf_des("A3 x A3")  # (1 + 11z + 11z^2 + z^3)^2: every root twice
    bag = negated_real_roots(f)
    assert calls, "a square gcd was settled modulo p"
    assert (bag.values, bag.residual_bound) == oracles.negated_roots(list(f.coefficients))
    assert bag.values == descent_root_bag("A3 x A3").values
    calls.clear()
    negated_real_roots(gf_des("A12"))  # square-free: one gcd modulo p
    assert not calls


_FALLBACK_GROUPS = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)] + [f"I2({m})" for m in range(3, 13)]
    + ["E6", "F4", "H3", "H4"])


def test_roots_bisect_when_the_polished_float_is_not_certified(monkeypatch):
    # every Newton-polished guess fails its certificate, so each root is
    # found by bisection of its isolating interval instead
    import coxstat.polynomials as polynomials

    monkeypatch.setattr(polynomials, "_brackets", lambda *args: False)
    for text in _FALLBACK_GROUPS:
        f = gf_des(text)
        bag = negated_real_roots(f)
        assert (bag.values, bag.residual_bound) == oracles.negated_roots(
            list(f.coefficients)), text


def test_roots_above_two_to_the_thousand_bisect_without_a_guess():
    # the root -2**1001 lies past the float range of _estimate
    f = P(2 ** 1001, 1)
    bag = negated_real_roots(f)
    assert bag.values == (2.0 ** 1001,)
    assert (bag.values, bag.residual_bound) == oracles.negated_roots(list(f.coefficients))


def test_a_leading_coefficient_divisible_by_the_prime_takes_the_exact_gcd(monkeypatch):
    # (p x + 1)(x + 1) with p = 2**61 - 1: the gcd modulo p is refused
    import coxstat.polynomials as polynomials

    calls = []
    exact = polynomials._gcd

    def counted(a, b):
        calls.append(len(a) - 1)
        return exact(a, b)

    monkeypatch.setattr(polynomials, "_gcd", counted)
    p = 2 ** 61 - 1
    f = P(1, p + 1, p)
    bag = negated_real_roots(f)
    assert calls == [2]
    assert (bag.values, bag.residual_bound) == oracles.negated_roots(list(f.coefficients))


def test_descent_root_bag_concatenates_factors():
    d = parse_descriptor("A1 x A2")
    bag = descent_root_bag(d)
    assert len(bag.values) == 3
    assert bag.values[1] == 1.0
    assert abs(bag.values[0] - (2 + math.sqrt(3))) < 1e-12
    # repeated factors repeat roots exactly
    d2 = parse_descriptor("A2^2")
    bag2 = descent_root_bag(d2)
    assert bag2.values[0] == bag2.values[1]
    assert len(bag2.values) == 4
    # the product polynomial itself has double roots
    assert negated_real_roots(gf_des(d2)).values == bag2.values


def test_root_sum_identities():
    # sum of 1/(1+q) is rank/2; weighted sum of q/(1+q)^2 is the variance
    from coxstat.moments import eulerian_moments

    for text in ["A4", "B4", "D5", "H3", "F4", "I2(9)", "A2 x I2(5)",
                 "A30", "A40", "A60", "B30"]:
        d = parse_descriptor(text)
        bag = descent_root_bag(d)
        assert len(bag.values) == rank(d), text
        assert bag.residual_bound <= 1e-12, text
        ps = bernoulli_parameters(bag)
        mean, var = eulerian_moments(d)
        assert abs(sum(ps) - float(mean)) < 1e-8, text
        assert abs(sum(p * (1 - p) for p in ps) - float(var)) < 1e-8, text
