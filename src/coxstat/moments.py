"""Exact moments and cumulants of the three statistics.

Every returned moment is a Fraction.  The inversion statistic
decomposes into a sum of independent uniforms on {0, ..., d_i - 1} over
the degrees, which gives every closed form here, and mahonian_summary
assembles the whole inversion summary from them; descent moments come
per irreducible factor from the factor's rank, Coxeter number and
largest edge label; the two-sided statistic des + ides adds a 1/h
correction per factor.  moments_from_polynomial recovers all of it from
any exact histogram, in integers over powers of the total until one
Fraction per returned value, with power sums over the coefficients
folded about the centre (half the length per power), and is the
cross-check path for the closed forms.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, sqrt
from operator import add, mul, sub

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


class DistributionSummary(namedtuple("DistributionSummary", [
    "mean",                     # Fraction
    "variance",                 # Fraction
    "central_moments",          # {order: Fraction}
    "cumulants",                # {order: Fraction}
    "normalized_cumulants",     # {order: float}
])):
    __slots__ = ()


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


def mahonian_summary(d, k_max=6):
    """The summary moments_from_polynomial gives for gf_inv(d), from the
    closed forms: mean and variance from mahonian_moments, cumulants
    from mahonian_cumulants, and central moments from the cumulants by
    mu_j = sum_i C(j - 1, i - 1) kappa_i mu_(j-i) about the mean."""
    mean, variance = mahonian_moments(d)
    cumulants = mahonian_cumulants(d, k_max)
    mu = [Fraction(1), Fraction(0)]
    for j in range(2, k_max + 1):
        mu.append(sum(comb(j - 1, i - 1) * cumulants[i] * mu[j - i] for i in range(2, j + 1)))
    central = {j: mu[j] for j in range(2, k_max + 1)}
    return DistributionSummary(mean, variance, central, cumulants,
                               _normalized(cumulants, variance))


def _normalized(cumulants, variance):
    """kappa_j / var^(j/2) for j >= 3 as floats, empty when var = 0: even
    j as one correctly rounded ratio, odd j as kappa_j / var^((j-1)/2)
    rounded, then divided by the rounded sqrt(var)."""
    if variance <= 0:
        return {}
    vn, vd = variance.as_integer_ratio()
    out = {}
    for j, kappa in cumulants.items():
        if j >= 3:
            kn, kd = kappa.as_integer_ratio()
            ratio = kn * vd ** (j // 2) / (kd * vn ** (j // 2))
            out[j] = ratio if j % 2 == 0 else ratio / sqrt(vn / vd)
    return out


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
    """Exact summary of the distribution proportional to the coefficients.

    Integers until the end: power sums about the centre c of the support
    come from running products over the coefficients folded about c
    (distance d weighs c_(c+d) + c_(c-d) in even powers and
    c_(c+d) - c_(c-d) in odd ones, so each pass is half as long), and
    with T the total, T^j times the j-th central moment and T^j times
    the j-th cumulant are integers; each returned rational is one
    Fraction of such a pair.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    coeffs = f.coefficients
    total = sum(coeffs)
    if total == 0:
        raise ValueError("zero polynomial has no distribution")
    centre = len(coeffs) // 2
    # c_(centre+d) and c_(centre-d) for d = 1..centre; an even length
    # has one entry fewer above the centre than below it
    above = coeffs[centre + 1:] + (0,) * (2 * centre + 1 - len(coeffs))
    below = coeffs[:centre][::-1]
    dist = range(1, centre + 1)
    squares = [d * d for d in dist]
    even = list(map(add, above, below))
    odd = list(map(mul, map(sub, above, below), dist))
    sums = [total, sum(odd)]  # sums[j] = sum_k c_k (k - centre)^j
    for j in range(2, k_max + 1):
        if j % 2:
            odd = list(map(mul, odd, squares))
            sums.append(sum(odd))
        else:
            even = list(map(mul, even, squares))
            sums.append(sum(even))
    shift = sums[1]  # T (mean - centre)
    tpow, powers = [1], [1]  # T^j and (-shift)^j
    for _ in range(k_max):
        tpow.append(tpow[-1] * total)
        powers.append(powers[-1] * -shift)
    # scaled[j] = T^j mu_j = sum_i C(j, i) sums[i] T^(i-1) (-shift)^(j-i),
    # where i = 0 and 1 give (1 - j) (-shift)^j, and kappas[j] = T^j kappa_j
    # by the moment-cumulant recurrence about the mean (mu_1 = kappa_1 = 0)
    scaled, kappas = {}, {}
    for j in range(2, k_max + 1):
        scaled[j] = (1 - j) * powers[j] + sum(
            comb(j, i) * sums[i] * tpow[i - 1] * powers[j - i] for i in range(2, j + 1))
        kappas[j] = scaled[j] - sum(comb(j - 1, i - 1) * kappas[i] * scaled[j - i]
                                    for i in range(2, j - 1))
    central = {j: Fraction(v, tpow[j]) for j, v in scaled.items()}
    cumulants = {j: Fraction(v, tpow[j]) for j, v in kappas.items()}
    return DistributionSummary(
        mean=Fraction(sums[1] + centre * total, total),
        variance=central[2],
        central_moments=central,
        cumulants=cumulants,
        normalized_cumulants=_normalized(cumulants, central[2]),
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
