"""Exact moments and cumulants of the three statistics.

Everything is a Fraction.  The inversion statistic decomposes into a sum
of independent uniforms on {0, ..., d_i - 1} over the degrees, which
gives every closed form here; descent moments come per irreducible
factor from the factor's rank, Coxeter number and largest edge label;
the two-sided statistic des + ides adds a 1/h correction per factor.
moments_from_polynomial recovers all of it from any exact histogram and
is the cross-check path for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

from .groups import (
    as_descriptor,
    coxeter_number,
    degrees,
    factor_m_max,
    group_order,
)

__all__ = [
    "DistributionSummary",
    "mahonian_moments",
    "mahonian_cumulants",
    "eulerian_moments",
    "double_eulerian_moments",
    "moments_from_polynomial",
    "double_coset_sum",
    "second_moment_inv_type_b",
]


@dataclass(frozen=True)
class DistributionSummary:
    mean: Fraction
    variance: Fraction
    central_moments: dict[int, Fraction]
    cumulants: dict[int, Fraction]
    normalized_cumulants: dict[int, float]


# ---------------------------------------------------------------------------
# inversions

def mahonian_moments(d):
    """(mean, variance) of inv: sum over degrees of uniform summands."""
    degs = degrees(as_descriptor(d))
    mean = Fraction(sum(v - 1 for v in degs), 2)
    var = Fraction(sum(v * v - 1 for v in degs), 12)
    return mean, var


def _bernoulli(k_max):
    """B_0..B_k_max (B_1 = -1/2) from sum_{j<=m} C(m+1, j) B_j = 0."""
    out = [Fraction(1)]
    for m in range(1, k_max + 1):
        out.append(-sum(comb(m + 1, j) * b for j, b in enumerate(out)) / (m + 1))
    return out


def mahonian_cumulants(d, k_max=6):
    """Cumulants of inv for orders 2..k_max.

    A uniform summand on {0, ..., d-1} has k-th cumulant
    B_k (d^k - 1) / k for k >= 2, so kappa_k = (B_k / k) sum(d^k - 1)
    over the degrees; odd orders vanish with B_k.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    degs = degrees(as_descriptor(d))
    bern = _bernoulli(k_max)
    return {k: bern[k] / k * sum(v ** k - 1 for v in degs)
            for k in range(2, k_max + 1)}


def second_moment_inv_type_b(n):
    """E[inv^2] over the hyperoctahedral group of rank n."""
    if n < 2:
        raise ValueError("type B needs rank >= 2")
    return Fraction(n ** 4, 4) + Fraction(4 * n ** 3 + 6 * n ** 2 - n, 36)


# ---------------------------------------------------------------------------
# descents

def _eulerian_factor_moments(label):
    n = label.rank
    if n == 1:
        return Fraction(1, 2), Fraction(1, 4)
    mean = Fraction(n, 2)
    var = Fraction(n - 2, 12) + Fraction(1, factor_m_max(label))
    return mean, var


def eulerian_moments(d):
    """(mean, variance) of des, summed over irreducible factors."""
    mean = Fraction(0)
    var = Fraction(0)
    for f in as_descriptor(d).factors:
        m, v = _eulerian_factor_moments(f)
        mean += m
        var += v
    return mean, var


def double_eulerian_moments(d):
    """(mean, variance) of des + ides, summed over irreducible factors."""
    mean = Fraction(0)
    var = Fraction(0)
    for f in as_descriptor(d).factors:
        fm, fv = _eulerian_factor_moments(f)
        mean += 2 * fm
        if f.rank == 1:
            var += 1
        else:
            var += 2 * fv + Fraction(f.rank, coxeter_number(f))
    return mean, var


# ---------------------------------------------------------------------------
# histogram route

def moments_from_polynomial(f, k_max=6):
    """Exact summary of the distribution proportional to the coefficients."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    coeffs = f.coefficients
    total = sum(coeffs)
    if total == 0:
        raise ValueError("zero polynomial has no distribution")
    raw = {0: Fraction(1)}
    for j in range(1, k_max + 1):
        raw[j] = Fraction(sum(c * k ** j for k, c in enumerate(coeffs)), total)
    mean = raw[1]
    central = {}
    for j in range(2, k_max + 1):
        acc = Fraction(0)
        for i in range(j + 1):
            acc += comb(j, i) * raw[i] * (-mean) ** (j - i)
        central[j] = acc
    cumulants = {}
    prev = {1: mean}
    for j in range(2, k_max + 1):
        acc = raw[j]
        for i in range(1, j):
            acc -= comb(j - 1, i - 1) * prev[i] * raw[j - i]
        prev[j] = acc
        cumulants[j] = acc
    variance = central[2]
    normalized = {}
    if variance > 0:
        fvar = float(variance)
        for j in range(3, k_max + 1):
            if j % 2 == 0:
                normalized[j] = float(cumulants[j] / variance ** (j // 2))
            else:
                normalized[j] = float(cumulants[j] / variance ** ((j - 1) // 2)) / sqrt(fvar)
    return DistributionSummary(
        mean=mean,
        variance=variance,
        central_moments=central,
        cumulants=cumulants,
        normalized_cumulants=normalized,
    )


# ---------------------------------------------------------------------------
# parabolic double cosets

def double_coset_sum(d):
    """Total count of double cosets W_s \\ W / W_t over ordered pairs of
    simple reflections: |W| n (nh + 2) / (4h) for an irreducible group."""
    d = as_descriptor(d)
    if not d.is_irreducible:
        raise ValueError("double_coset_sum needs a single irreducible factor")
    label = d.factors[0]
    n = label.rank
    h = coxeter_number(label)
    value = Fraction(group_order(d) * n * (n * h + 2), 4 * h)
    if value.denominator != 1:
        raise ArithmeticError(f"double coset sum for {label} is not an integer")
    return int(value)
