"""Sequence specs, exact CLT verdicts from growth orders, sweep rows,
Lindeberg and local-limit diagnostics."""

import math
from fractions import Fraction

import pytest

import oracles
from coxstat.groups import degrees, descriptor, irreducible, parse_descriptor, rank
from coxstat.limits import (
    EulerianRow,
    MahonianRow,
    SequenceSpec,
    _growth,
    clt_check_des,
    clt_check_inv,
    llt_sup_distance,
    parse_sequence_spec,
    triangular_array_diagnostics,
)
from coxstat.moments import eulerian_moments, mahonian_moments
from coxstat.polynomials import (
    ExactPolynomial,
    bernoulli_parameters,
    descent_root_bag,
    gf_des,
    gf_inv,
)

EX1 = "prod(I2(i), i=1..n)"
EX2 = "prod(I2(i^2), i=1..n)"
EX3 = "A1^(n-2) x I2(n)"
EX4 = "prod(I2(2^i), i=1..n)"


class TestSequenceSpecs:
    def test_descriptor_evaluation(self):
        assert str(parse_sequence_spec("A(n)").descriptor(6)) == "A6"
        assert str(parse_sequence_spec("B3").descriptor(10)) == "B3"
        assert (str(parse_sequence_spec(EX1).descriptor(4))
                == "A1^3 x I2(3) x I2(4)")
        assert str(parse_sequence_spec(EX3).descriptor(5)) == "A1^3 x I2(5)"
        assert (str(parse_sequence_spec(EX4).descriptor(3))
                == "A1^2 x I2(4) x I2(8)")
        assert str(parse_sequence_spec("A1^(2*n)").descriptor(3)) == "A1^6"
        assert str(parse_sequence_spec("a2 x i2(7)").descriptor(1)) == "A2 x I2(7)"

    def test_dihedral_normalization_is_rank_preserving(self):
        spec = parse_sequence_spec(EX1)
        for n in range(1, 8):
            assert rank(spec.descriptor(n)) == sum(min(i, 2) for i in range(1, n + 1))

    def test_raw_dihedral_parameters(self):
        spec = parse_sequence_spec(EX2)
        assert spec.dihedral_parameters(3) == [1, 4, 9]
        assert parse_sequence_spec(EX3).dihedral_parameters(7) == [7]
        assert parse_sequence_spec("B(n)").dihedral_parameters(5) == []
        # a powered product repeats each raw label power times
        powered = parse_sequence_spec("prod(I2(i)^2, i=1..n)")
        assert powered.dihedral_parameters(3) == [1, 1, 2, 2, 3, 3]
        assert str(powered.descriptor(3)) == "A1^6 x I2(3)^2"
        # only the I2 terms are read, so an invalid non-I2 term is no error
        mixed = parse_sequence_spec("D(n) x I2(n+1)^(n-1)")
        assert mixed.dihedral_parameters(2) == [3]
        with pytest.raises(ValueError, match="invalid label at n = 2"):
            mixed.descriptor(2)
        # the I2 terms are checked as descriptor checks them
        with pytest.raises(ValueError, match="negative power -1 at n = 0"):
            mixed.dihedral_parameters(0)
        with pytest.raises(ValueError, match="invalid label at n = 0"):
            parse_sequence_spec("I2(n)").dihedral_parameters(0)

    def test_classification(self):
        # each term's (dihedral, des diverges, degree order, variance
        # order, exponential parameter and d^2 / variance vanishing)
        def shapes(text):
            return [tuple(g[:5]) for g in map(_growth, parse_sequence_spec(text).terms)]

        assert shapes("A(n)") == [(False, True, 1, 3, None)]
        assert shapes("D(n)") == [(False, True, 1, 3, None)]
        assert shapes(EX1) == [(True, True, 1, 3, None)]
        assert shapes(EX2) == [(True, False, 2, 5, None)]
        assert shapes(EX4) == [(True, False, 0, 0, False)]
        assert shapes(EX3) == [(False, True, 0, 1, None), (True, False, 1, 2, None)]
        assert shapes("B3") == [(False, False, 0, 0, None)]
        assert shapes("A(n) x B(n)") == [(False, True, 1, 3, None)] * 2

    def test_parse_rejects_garbage(self):
        for bad in ("Q5", "A", "A5 y B3", "I2(n", "A1^", "prod(I2(i), j=1..n)",
                    "prod(I2(i) i=1..n)", ""):
            with pytest.raises(ValueError):
                parse_sequence_spec(bad)

    def test_invalid_label_at_index_is_loud(self):
        with pytest.raises(ValueError, match="n = 0"):
            parse_sequence_spec("A(n)").descriptor(0)
        with pytest.raises(ValueError, match="n = 2"):
            parse_sequence_spec("D(n)").descriptor(2)


class TestTrendVerdicts:
    def test_decay_growth_and_plateau(self):
        # the exact verdicts agree with what the sampled rows show
        zero = clt_check_inv("A(n)", range(1, 21))
        assert zero.ratio.verdict == "tends_to_zero"
        ratios = [row.ratio for row in zero.per_n]
        assert all(b < a for a, b in zip(ratios[1:], ratios[2:]))
        inf = clt_check_des("A(n)", range(1, 21))
        assert inf.trend.verdict == "tends_to_infinity"
        sigmas = [row.s_n for row in inf.per_n]
        assert all(a < b for a, b in zip(sigmas, sigmas[1:]))
        flat = clt_check_des(EX2, range(1, 21))
        assert flat.trend.verdict == "bounded"
        assert flat.per_n[-1].dihedral_inverse_sum < math.pi ** 2 / 6

    def test_oscillation_is_inconclusive(self):
        # a variable exponent: the rows alternate, and no rule decides
        for text in ("I2(4+(-1)^n)", "A1^(2+(-1)^n)"):
            inv = clt_check_inv(text, range(1, 21))
            des = clt_check_des(text, range(1, 21))
            assert len({row.ratio for row in inv.per_n}) == 2
            assert (inv.clt_holds, inv.ratio.verdict) == (None, "inconclusive")
            assert (des.clt_holds, des.trend.verdict) == (None, "inconclusive")
            assert "a variable exponent" in des.trend.rationale


class TestCltInv:
    def test_classical_families_satisfy_clt(self):
        for text, lo in (("A(n)", 1), ("B(n)", 2), ("D(n)", 4)):
            rep = clt_check_inv(text, range(lo, lo + 12))
            assert rep.clt_holds is True
            assert rep.ratio.verdict == "tends_to_zero"
            assert rep.symbolic is not None
            assert rep.rank_increasing

    def test_growing_dihedral_products_satisfy_clt(self):
        for text in (EX1, EX2):
            rep = clt_check_inv(text, range(1, 13))
            assert rep.clt_holds is True
            assert rep.ratio.verdict == "tends_to_zero"

    def test_thin_product_fails_clt(self):
        rep = clt_check_inv(EX3, range(20, 81))
        assert rep.clt_holds is False
        assert rep.ratio.verdict == "bounded"
        # the ratio stabilizes near sqrt(12)
        assert abs(rep.per_n[-1].ratio - math.sqrt(12)) < 0.1

    def test_exponential_dihedral_fails_clt(self):
        rep = clt_check_inv(EX4, range(1, 13))
        assert rep.clt_holds is False
        assert rep.ratio.verdict == "bounded"

    def test_per_n_values_are_exact(self):
        rep = clt_check_inv(EX1, range(1, 13))
        for row in rep.per_n:
            d = parse_sequence_spec(EX1).descriptor(row.n)
            assert row.rank == rank(d)
            assert row.d_n == max(row.n, 2)
            assert row.variance == mahonian_moments(d)[1]


class TestCltDes:
    def test_classical_families_satisfy_clt(self):
        for text, lo in (("A(n)", 1), ("B(n)", 2), ("D(n)", 4)):
            rep = clt_check_des(text, range(lo, lo + 12))
            assert rep.clt_holds is True
            assert rep.trend.verdict == "tends_to_infinity"
            assert rep.cond_rank_to_infinity

    def test_linear_dihedral_product_diverges(self):
        rep = clt_check_des(EX1, range(1, 13))
        assert rep.clt_holds is True
        assert rep.cond_dihedral_divergence
        assert not rep.cond_rank_to_infinity

    def test_quadratic_dihedral_product_is_bounded(self):
        rep = clt_check_des(EX2, range(1, 101))
        assert rep.clt_holds is False
        assert rep.trend.verdict == "bounded"
        assert not rep.cond_dihedral_divergence
        # partial sums of 1/m approach pi^2/6 and have visibly flattened
        total = rep.per_n[-1].dihedral_inverse_sum
        assert abs(total - 1.63498) < 1e-4
        assert abs(total - math.pi ** 2 / 6) < 1e-2

    def test_thin_product_diverges_via_rank(self):
        rep = clt_check_des(EX3, range(20, 81))
        assert rep.clt_holds is True
        assert rep.trend.verdict == "tends_to_infinity"
        assert rep.cond_rank_to_infinity
        assert not rep.cond_dihedral_divergence

    def test_exponential_dihedral_is_bounded(self):
        rep = clt_check_des(EX4, range(1, 13))
        assert rep.clt_holds is False
        assert rep.trend.verdict == "bounded"

    def test_divergent_term_next_to_a_heavy_fixed_factor(self):
        # the harmonic 1/m sum diverges, although next to E8^100 the
        # variance barely moves over the range
        rep = clt_check_des("E8^100 x prod(I2(i), i=1..n)", range(2, 81))
        assert rep.cond_dihedral_divergence is True
        assert rep.cond_rank_to_infinity is False
        assert rep.clt_holds is True
        assert rep.trend.verdict == "tends_to_infinity"

    def test_harmonic_product_next_to_a1_far_out(self):
        # Var(des) = 1/4 + 3/4 + sum_{m=3..n} 1/m diverges, however slowly
        # it moves between n = 30000 and n = 30099
        rep = clt_check_des("prod(I2(i), i=1..n) x A1", range(30000, 30100))
        assert rep.clt_holds is True
        assert rep.trend.verdict == "tends_to_infinity"
        assert rep.cond_dihedral_divergence is True

    def test_condition_implications_hold(self):
        cases = [("A(n)", range(1, 13)), (EX1, range(1, 13)),
                 (EX2, range(1, 101)), (EX3, range(20, 81)),
                 (EX4, range(1, 13)), ("prod(I2(n+i), i=1..n)", range(1, 13)),
                 ("prod(I2(n+i), i=1..n) x A(n)", range(1, 13))]
        for text, rng in cases:
            rep = clt_check_des(text, rng)
            conditions = (rep.cond_rank_to_infinity, rep.cond_dihedral_divergence)
            want = (True if True in conditions
                    else None if None in conditions else False)
            assert rep.clt_holds is want, text


_POLY = ("by the per-factor closed forms, d_n grows like n^{} and s_n^2 like "
         "n^{}, so d_n / s_n {}")
_EXP = ("a product with exponential parameter dominates every other term, so "
        "d_n / s_n stays bounded away from 0")
_SHARE = "{}, so its share of the descent variance diverges"
_BOUNDED = "every term's share of the descent variance stays bounded, so s_n does too"
_N_INSIDE = "term 1 (I2 product): n inside its factor, power or lower bound; "

# spec, range, then per statistic: the sentence behind the verdict, the
# verdict, clt_holds, and for des the two conditions (rank to infinity,
# dihedral divergence)
VERDICT_CASES = [
    ("A(n)", range(2, 30),
     (_POLY.format(1, 3, "vanishes"), "tends_to_zero", True),
     (_SHARE.format("term 1 (A): its rank or its power grows"),
      "tends_to_infinity", True, (True, False))),
    ("D(n)", range(4, 30),
     (_POLY.format(1, 3, "vanishes"), "tends_to_zero", True),
     (_SHARE.format("term 1 (D): its rank or its power grows"),
      "tends_to_infinity", True, (True, False))),
    (EX1, range(1, 40),
     (_POLY.format(1, 3, "vanishes"), "tends_to_zero", True),
     (_SHARE.format("term 1 (I2 product): its power over its parameter decays "
                    "no faster than 1/i"), "tends_to_infinity", True, (False, True))),
    (EX2, range(1, 40),
     (_POLY.format(2, 5, "vanishes"), "tends_to_zero", True),
     (_BOUNDED, "bounded", False, (False, False))),
    (EX3, range(2, 40),
     (_POLY.format(1, 2, "stays bounded away from 0"), "bounded", False),
     (_SHARE.format("term 1 (A): its rank or its power grows"),
      "tends_to_infinity", True, (True, False))),
    (EX4, range(1, 25),
     (_EXP, "bounded", False),
     (_BOUNDED, "bounded", False, (False, False))),
    # n inside a product's factor: no rule decides the term
    ("prod(I2(n+i), i=1..n)", range(1, 31),
     (_N_INSIDE + "no exact rule decides d_n / s_n", "inconclusive", None),
     (_N_INSIDE + "no exact rule decides it, and no term is known to diverge",
      "inconclusive", None, (False, None))),
]


@pytest.mark.parametrize("text, ns, inv, des", VERDICT_CASES,
                         ids=[t for t, *_ in VERDICT_CASES])
def test_verdicts_and_sentences_are_pinned(text, ns, inv, des):
    rep = clt_check_inv(text, ns)
    assert (rep.ratio.rationale, rep.ratio.verdict, rep.clt_holds) == inv
    assert rep.symbolic == (None if rep.clt_holds is None else inv[0])
    rep = clt_check_des(text, ns)
    conditions = (rep.cond_rank_to_infinity, rep.cond_dihedral_divergence)
    assert (rep.trend.rationale, rep.trend.verdict, rep.clt_holds, conditions) == des
    assert rep.symbolic == (None if rep.clt_holds is None else des[0])


# spec, range, inv clt_holds, des clt_holds, and the (d_n, s_n^2) growth
# exponents when the inv verdict compares them
RULE_CASES = [
    ("A1^(n)", range(1, 9), True, True, (0, 1)),
    ("B3 x I2(7)", range(1, 9), False, False, (0, 0)),
    ("I2(n^2)^(n^3)", range(1, 9), True, True, (2, 7)),
    ("I2(n^2)^(n)", range(1, 9), True, False, (2, 5)),
    ("prod(I2(i^2)^(i), i=1..n)", range(1, 9), True, True, (2, 6)),
    ("prod(I2(i^3)^(i), i=1..n)", range(1, 9), True, False, (3, 8)),
    ("prod(I2(i), i=1..n^2)", range(1, 9), True, True, (2, 6)),
    ("prod(I2(3), i=1..n)", range(1, 9), True, True, (0, 1)),
    ("prod(B(i+1)^2, i=1..n)", range(1, 9), True, True, (1, 4)),
    ("prod(I2(2^i)^(i), i=1..n)", range(1, 9), True, False, None),
    ("prod(A(2^i), i=1..n)", range(1, 6), True, True, None),
    ("prod(I2(2^i), i=1..n) x A(n)", range(1, 9), False, True, None),
    ("prod(I2(2^i), i=1..n) x prod(I2(3^i), i=1..n)", range(1, 9), None, False, None),
    # eventually empty, fixed, and empty products are bounded
    ("prod(I2(n+i), i=1..30-n) x A(n)", range(1, 9), True, True, (1, 3)),
    ("prod(I2(i), i=1..5) x A1", range(1, 9), False, False, (0, 0)),
    ("prod(I2(i)^0, i=1..n) x A1", range(1, 9), False, False, (0, 0)),
    # undecided terms
    ("I2(2^n)", range(1, 9), None, None, None),
    ("A(30-n)", range(1, 9), None, None, None),
    ("prod(E(i+5), i=1..n)", range(1, 4), None, None, None),
    ("prod(I2(i), i=n..2*n)", range(1, 9), None, None, None),
    ("prod(I2(i)^(n-i), i=1..n) x A(n)", range(1, 9), None, True, None),
]


@pytest.mark.parametrize("text, ns, inv, des, orders", RULE_CASES,
                         ids=[t for t, *_ in RULE_CASES])
def test_growth_rules(text, ns, inv, des, orders):
    rep = clt_check_inv(text, ns)
    assert rep.clt_holds is inv
    if orders is not None:
        assert f"grows like n^{orders[0]} and s_n^2 like n^{orders[1]}," in rep.symbolic
    assert clt_check_des(text, ns).clt_holds is des


SWEEP_CASES = [
    ("A(n)", range(1, 31)),
    ("D(n)", range(4, 31)),
    (EX1, range(1, 41)),
    (EX2, range(1, 41)),
    (EX4, range(1, 26)),
    (EX3, range(2, 41)),
    ("prod(I2(n+i), i=1..n)", range(1, 31)),
    ("prod(I2(i), i=n..2*n)", range(1, 31)),
    ("prod(I2(i), i=5..n) x A(n)", range(1, 12)),  # empty ranges below 5
    ("prod(A(i)^2, i=1..n) x H3", range(1, 13)),
    ("prod(I2(i), i=1..30-n) x A(n)", range(1, 31)),  # the range shrinks
    ("prod(I2(i)^(n-i), i=1..n)", range(2, 31)),      # the power depends on n
]


# the acceptance-9 examples and a harmonic product next to A1
_INVARIANCE_SPECS = sorted(
    {text for text, *_ in VERDICT_CASES + SWEEP_CASES}
    | {EX1, EX2, EX3, EX4, "A(n)", "B(n)", "D(n)", "prod(I2(i), i=1..n) x A1"})


@pytest.mark.parametrize("text", _INVARIANCE_SPECS)
def test_verdicts_do_not_depend_on_the_range(text):
    def verdicts(ns):
        inv, des = clt_check_inv(text, ns), clt_check_des(text, ns)
        return (inv.clt_holds, inv.ratio.verdict, inv.symbolic, des.clt_holds,
                des.trend.verdict, des.symbolic, des.cond_rank_to_infinity,
                des.cond_dihedral_divergence)

    assert verdicts(range(5, 25)) == verdicts(range(200, 240))


def _oracle_rows(text, ns):
    """Both checks' rows, built the slow way from each descriptor."""
    spec = parse_sequence_spec(text)
    inv, des = [], []
    for n in ns:
        d = spec.descriptor(n)
        r = rank(d)
        dn = max(degrees(d))
        var = mahonian_moments(d)[1]
        inv.append(MahonianRow(n, r, dn, var, dn / math.sqrt(float(var))))
        dvar = eulerian_moments(d)[1]
        des.append(EulerianRow(n, r, dvar, math.sqrt(float(dvar)), float(
            sum(Fraction(1, m) for m in spec.dihedral_parameters(n)))))
    return tuple(inv), tuple(des)


class TestSweepRows:
    @pytest.mark.parametrize("text, ns", SWEEP_CASES, ids=[t for t, _ in SWEEP_CASES])
    def test_rows_match_descriptor_route(self, text, ns):
        inv, des = _oracle_rows(text, ns)
        rep = clt_check_inv(text, ns)
        assert rep.per_n == inv
        assert all(type(row) is MahonianRow for row in rep.per_n)
        rep = clt_check_des(text, ns)
        assert rep.per_n == des
        assert all(type(row) is EulerianRow for row in rep.per_n)

    def test_first_invalid_label_fails_at_the_same_n(self):
        for check in (clt_check_inv, clt_check_des):
            with pytest.raises(ValueError, match="invalid label at n = 3"):
                check("prod(B(i), i=1..n)", range(3, 9))

    def test_rows_do_not_build_descriptors(self, monkeypatch):
        def refuse(self, n):
            raise AssertionError("descriptor route in a sweep")

        monkeypatch.setattr(SequenceSpec, "descriptor", refuse)
        monkeypatch.setattr(SequenceSpec, "dihedral_parameters", refuse)
        for text in (EX1, "A(n)"):
            assert clt_check_inv(text, range(1, 30)).clt_holds is True
            assert clt_check_des(text, range(1, 30)).clt_holds is True


class TestLindeberg:
    def test_inv_summands_are_exact(self):
        rep = triangular_array_diagnostics(irreducible("A", 5), "inv", Fraction(1, 2))
        assert rep.summand_variances == tuple(
            Fraction(v * v - 1, 12) for v in (2, 3, 4, 5, 6))
        assert rep.total_variance == Fraction(85, 12)
        assert rep.max_ratio == Fraction(35, 85)

    def test_inv_lindeberg_extremes(self):
        d = irreducible("A", 5)
        # cut above the largest deviation: empty sum
        assert triangular_array_diagnostics(d, "inv", 1).lindeberg_sum == 0
        # vanishing epsilon: every term counts, normalized sum is exactly 1
        assert triangular_array_diagnostics(
            d, "inv", Fraction(1, 10 ** 9)).lindeberg_sum == 1

    def test_des_lindeberg_extremes(self):
        d = irreducible("B", 5)
        # vanishing epsilon: both values of every indicator count
        rep = triangular_array_diagnostics(d, "des", 1e-9)
        assert rep.lindeberg_sum == pytest.approx(1, abs=1e-12)
        # a cut above every deviation: empty sum
        assert triangular_array_diagnostics(d, "des", 5).lindeberg_sum == 0
        # in between, only the deviations at or past the cut count
        ps = bernoulli_parameters(descent_root_bag(d))
        total = sum(p * (1 - p) for p in ps)
        cut = 0.3 * math.sqrt(total)
        want = sum((p * (1 - p) ** 2 if 1 - p >= cut else 0)
                   + ((1 - p) * p ** 2 if p >= cut else 0) for p in ps)
        assert 0 < want < total
        rep = triangular_array_diagnostics(d, "des", 0.3)
        assert rep.lindeberg_sum == want / total

    def test_inv_lindeberg_vanishes_along_growing_ranks(self):
        vals = [triangular_array_diagnostics(
            irreducible("A", n), "inv", Fraction(1, 2)).lindeberg_sum
            for n in (10, 20, 40)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == 0

    def test_max_ratio_vanishes_for_balanced_products(self):
        r5 = triangular_array_diagnostics(
            descriptor(("A", 1)) ** 5, "inv", Fraction(1, 2))
        assert r5.max_ratio == Fraction(1, 5)

    @pytest.mark.parametrize("text", ["A9", "A3 x I2(7)", "H3", "B25 x D29", "A1", "A1^4"])
    def test_inv_matches_the_fraction_loop(self, text):
        # the integer test x^2 den >= 4 num, one Fraction per degree,
        # against one Fraction per (degree, k) pair; A1 at eps = 1 and
        # A1^4 at eps = 1/2 put a deviation exactly on the cut
        d = parse_descriptor(text)
        for eps in (0, Fraction(1, 10), Fraction(1, 2), 1, Fraction(1, 10 ** 9), 0.25):
            rep = triangular_array_diagnostics(d, "inv", eps)
            want = oracles.lindeberg_inv(degrees(d), eps)
            got = (rep.summand_variances, rep.total_variance, rep.max_ratio,
                   rep.lindeberg_sum)
            assert got == want, (text, eps)
            assert rep.epsilon == float(eps)

    def test_des_path_uses_descent_roots(self):
        rep = triangular_array_diagnostics(irreducible("A", 20), "des", 1.0)
        assert rep.statistic == "des"
        assert rep.lindeberg_sum == 0.0
        assert rep.max_ratio < 0.2
        assert rep.total_variance == pytest.approx(22 / 12, abs=1e-9)

    def test_rejects_unknown_statistic_and_trivial_group(self):
        with pytest.raises(ValueError, match="inv or des"):
            triangular_array_diagnostics(irreducible("A", 2), "maj", 0.5)
        with pytest.raises(ValueError):
            triangular_array_diagnostics(descriptor(), "inv", 0.5)


class TestLocalLimit:
    def test_point_mass_is_degenerate(self):
        rep = llt_sup_distance(ExactPolynomial((0, 0, 5)))
        assert rep.degenerate
        assert rep.distance == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_uniform_is_far_from_normal(self):
        rep = llt_sup_distance(ExactPolynomial((1,) * 6))
        assert not rep.degenerate
        assert rep.distance > 0.1

    def test_distance_shrinks_with_rank(self):
        d4 = llt_sup_distance(gf_inv(irreducible("A", 4))).distance
        d8 = llt_sup_distance(gf_inv(irreducible("A", 8))).distance
        d12 = llt_sup_distance(gf_inv(irreducible("A", 12))).distance
        assert d4 > d8 > d12

    def test_large_type_b_descents_are_locally_normal(self):
        rep = llt_sup_distance(gf_des(irreducible("B", 30)))
        assert not rep.degenerate
        assert rep.distance < 0.05

    def test_descent_distance_oscillates_with_parity(self):
        # the Eulerian mean n/2 alternates integer / half-integer, so the
        # support point nearest the normal peak drifts with the parity of
        # n and the per-n distances are not monotone; each parity class
        # still trends downward front to back
        vals = [llt_sup_distance(gf_des(irreducible("A", n))).distance
                for n in range(4, 21)]
        assert any(a < b for a, b in zip(vals, vals[1:]))
        even = vals[0::2]
        odd = vals[1::2]
        assert all(a > b for a, b in zip(even, even[1:]))
        assert odd[0] < even[0] and odd[-1] < even[-1]
        assert max(vals[-4:]) < vals[0] / 3

    def test_invariance_under_reversal_and_scaling(self):
        f = ExactPolynomial((1, 6, 11, 6))
        rev = ExactPolynomial(tuple(reversed(f.coefficients)))
        scaled = ExactPolynomial(tuple(7 * c for c in f.coefficients))
        d = llt_sup_distance(f).distance
        assert llt_sup_distance(rev).distance == pytest.approx(d, abs=1e-15)
        assert llt_sup_distance(scaled).distance == pytest.approx(d, abs=1e-15)
        g = gf_des(irreducible("B", 4))
        assert (llt_sup_distance(ExactPolynomial(tuple(reversed(g.coefficients))))
                .distance == pytest.approx(llt_sup_distance(g).distance, abs=1e-15))


# ---------------------------------------------------------------------------
# sweep rows against the groups written out

@pytest.mark.parametrize("family", "ABD")
def test_classical_sweep_rows_match_degrees_and_descent_rows(family):
    lo = {"A": 1, "B": 2, "D": 4}[family]
    ns = range(lo, 61)
    inv = clt_check_inv(f"{family}(n)", ns)
    des = clt_check_des(f"{family}(n)", ns)
    rows = (oracles.descent_rows_d(60) if family == "D"
            else dict(enumerate(oracles.eulerian_rows(1 if family == "A" else 2, 60))))
    for (n, rank, d_n, var, ratio), (n2, rank2, des_var, s_n, inverse_sum) in zip(
            inv.per_n, des.per_n):
        degs = oracles.classical_degrees(family, n)
        want = Fraction(sum(v * v - 1 for v in degs), 12)
        assert (n, rank, d_n, var) == (n2, n, max(degs), want)
        assert ratio == max(degs) / math.sqrt(float(want))
        assert (rank2, des_var) == (n, oracles.variance_of_tally(rows[n]))
        assert s_n == math.sqrt(float(des_var))
        assert inverse_sum == 0.0
    assert [row.n for row in des.per_n] == list(ns)


def test_dihedral_sweep_rows_match_the_factors_written_out():
    ns = range(1, 90)
    inv = clt_check_inv(EX1, ns)
    des = clt_check_des(EX1, ns)
    for (n, rank, d_n, var, ratio), (_, rank2, des_var, _, inverse_sum) in zip(
            inv.per_n, des.per_n):
        factors = oracles.dihedral_product(n)
        degs = [v for f, _ in factors for v in f]
        want = Fraction(sum(v * v - 1 for v in degs), 12)
        assert (rank, d_n, var) == (len(degs), max(degs), want)
        assert ratio == max(degs) / math.sqrt(float(want))
        assert rank2 == rank
        assert des_var == sum(oracles.variance_of_tally(t) for _, t in factors)
        assert inverse_sum == float(sum(Fraction(1, i) for i in range(1, n + 1)))
    assert [row.n for row in des.per_n] == list(ns)
