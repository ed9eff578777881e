"""The result records are frozen namedtuples: pinned reprs, read-only
fields, equality and hashing by value, and the validation messages of
the records that validate."""

import re
from fractions import Fraction

import pytest

from coxstat.groups import irreducible, parse_descriptor
from coxstat.interplab import StatisticDataset, lagrange_guess, summarize
from coxstat.limits import (
    clt_check_des,
    clt_check_inv,
    llt_sup_distance,
    parse_sequence_spec,
    triangular_array_diagnostics,
)
from coxstat.moments import moments_from_polynomial
from coxstat.polynomials import (
    ExactPolynomial,
    gf_inv,
    negated_real_roots,
    structural_checks,
)
from coxstat.rootsys import build_root_system, enumerate_inversion_sets

# one instance of every record class, built through the public API
_RECORDS = {
    "IrreducibleLabel": lambda: irreducible("I2", 2, 5),
    "CoxeterDescriptor": lambda: parse_descriptor("A1 x I2(5)"),
    "DistributionSummary": lambda: moments_from_polynomial(gf_inv("A3"), k_max=4),
    "ExactPolynomial": lambda: ExactPolynomial((1, 2)),
    "StructuralReport": lambda: structural_checks(ExactPolynomial((1, 2, 1))),
    "RootBag": lambda: negated_real_roots(ExactPolynomial((1, 2, 1))),
    "_Term": lambda: parse_sequence_spec("prod(I2(i), i=1..n)").terms[0],
    "SequenceSpec": lambda: parse_sequence_spec("prod(I2(i), i=1..n)"),
    "TrendReport": lambda: clt_check_inv("A(n)", range(2, 9)).ratio,
    "MahonianRow": lambda: clt_check_inv("A(n)", range(2, 9)).per_n[0],
    "EulerianRow": lambda: clt_check_des("A(n)", range(2, 9)).per_n[0],
    "MahonianCltReport": lambda: clt_check_inv("A(n)", range(2, 9)),
    "EulerianCltReport": lambda: clt_check_des("prod(I2(i), i=1..n)", range(2, 9)),
    "LindebergReport": lambda: triangular_array_diagnostics("A3", "inv", 0.5),
    "LltReport": lambda: llt_sup_distance(ExactPolynomial((1, 2, 1))),
    "StatisticDataset": lambda: StatisticDataset("des", {2: (1, 1)}),
    "SummaryRow": lambda: summarize(StatisticDataset("des", {3: (1, 4, 1)}))[0],
    "RationalFormula": lambda: lagrange_guess([(n, Fraction(n + 2, 12))
                                               for n in range(1, 8)])[0],
    "RootSystem": lambda: build_root_system(irreducible("I2", 2, 5)),
    "ElementRecord": lambda: list(enumerate_inversion_sets(
        build_root_system(irreducible("A", 2))))[3],
}

# records holding dicts are unhashable, as they were as dataclasses
_DICT_RECORDS = {"DistributionSummary", "StatisticDataset", "SummaryRow"}


def test_every_record_class_is_listed():
    assert sorted(type(make()).__name__ for make in _RECORDS.values()) == sorted(_RECORDS)


def test_reprs_are_pinned():
    assert repr(parse_descriptor("A1 x I2(5)")) == (
        "CoxeterDescriptor(factors=(IrreducibleLabel(family='A', rank=1, m=None), "
        "IrreducibleLabel(family='I2', rank=2, m=5)))")
    assert repr(ExactPolynomial((1, 2, 0))) == "ExactPolynomial(coefficients=(1, 2))"
    # the parsed terms stay out of the spec's repr
    assert repr(parse_sequence_spec("prod(I2(i), i=1..n)")) == (
        "SequenceSpec(source_text='prod(I2(i), i=1..n)')")
    assert repr(structural_checks(ExactPolynomial((1, 2, 1)))) == (
        "StructuralReport(palindromic=True, unimodal=True, log_concave=True, "
        "no_internal_zeros=True)")
    assert repr(negated_real_roots(ExactPolynomial((1, 2, 1)))) == (
        "RootBag(values=(1.0, 1.0), residual_bound=0.0)")
    assert repr(llt_sup_distance(ExactPolynomial((1, 2, 1)))) == (
        "LltReport(distance=0.045388889808158916, degenerate=False)")
    assert repr(StatisticDataset("des")) == (
        "StatisticDataset(name='des', histograms={}, group=None)")
    rep = clt_check_inv("A(n)", [1])
    assert repr(rep.per_n) == (
        "(MahonianRow(n=1, rank=1, d_n=2, variance=Fraction(1, 4), ratio=4.0),)")
    assert repr(rep.ratio) == (
        "TrendReport(verdict='tends_to_zero', rationale='by the per-factor closed "
        "forms, d_n grows like n^1 and s_n^2 like n^3, so d_n / s_n vanishes')")
    assert repr(lagrange_guess([(n, n * n) for n in range(1, 8)])) == (
        "[RationalFormula(numerator=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), "
        "a=0, b=0, c=0)]")
    rs = build_root_system(irreducible("A", 2))
    assert repr(rs) == (
        "RootSystem(label=IrreducibleLabel(family='A', rank=2, m=None), rank=2, "
        "positive_roots=((1, 0), (0, 1), (1, 1)), action=((0, 2, 1), (2, 1, 0)))")
    assert rs.root_count == 3
    assert repr(list(enumerate_inversion_sets(rs))[3]) == (
        "ElementRecord(inversion_set=5, length=2, right_descents=1, left_descents=2)")


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_fields_are_read_only(name):
    record = _RECORDS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is not None
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_equal_values_give_equal_records(name):
    a, b = _RECORDS[name](), _RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    if name in _DICT_RECORDS:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_unequal_values_give_unequal_records():
    assert irreducible("I2", 2, 5) != irreducible("I2", 2, 7)
    assert parse_descriptor("A1 x A2") != parse_descriptor("A1 x A3")
    assert ExactPolynomial((1, 2)) != ExactPolynomial((1, 3))
    assert len({irreducible("A", 3), irreducible("A", 3), irreducible("B", 3)}) == 2


def test_omitted_dataset_dicts_are_fresh():
    a, b = StatisticDataset("x"), StatisticDataset("y")
    assert a.histograms == {} and a.group is None
    assert a.histograms is not b.histograms


@pytest.mark.parametrize("make, message", [
    (lambda: parse_descriptor("B1"),
     "B1 is not a valid label; B1 degenerates to A1, rank must be >= 2"),
    (lambda: parse_descriptor("I2(2)"),
     "I2(2) is not a valid label; it degenerates to A1 x A1"),
    (lambda: irreducible("D", 3),
     "D3 is not a valid label; D3 degenerates to A3; rank must be >= 4"),
    (lambda: parse_descriptor("E5"), "E5 is not a valid label; rank must be 6, 7 or 8"),
    (lambda: parse_descriptor("F3"), "F3 is not a valid label; rank must be 4"),
    (lambda: irreducible("H", 5), "H5 is not a valid label; rank must be 3 or 4"),
    (lambda: irreducible("A", 2, 5),
     "parameter m is only meaningful for I2, got A"),
    (lambda: ExactPolynomial((1, -1)), "coefficients must be nonnegative"),
    (lambda: StatisticDataset("x", {3: (1, -1)}), "negative histogram entry at n = 3"),
])
def test_validation_messages_are_unchanged(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
