"""Reference facts the benchmark checks outputs against.

Written from the definitions and imports nothing from coxstat, so a
wrong kernel cannot agree with itself here.  Groups are tuples of
factors: ("A", r), ("B", r), ("D", r), ("E", r), ("F", 4), ("H", r)
or ("I2", m).
"""

from __future__ import annotations

import math
from fractions import Fraction

_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("H", 3): (2, 6, 10),
    ("H", 4): (2, 12, 20, 30),
}

# largest edge label of each family's diagram, rank >= 2
_M_MAX = {"A": 3, "B": 4, "D": 3, "E": 3, "F": 4, "H": 5}


def factor_text(factor):
    family, n = factor
    return f"I2({n})" if family == "I2" else f"{family}{n}"


def group_text(factors):
    return " x ".join(factor_text(f) for f in factors)


def parse_group(text):
    """Inverse of group_text for the plain forms the benchmark writes."""
    out = []
    for part in text.split(" x "):
        if part.startswith("I2("):
            out.append(("I2", int(part[3:-1])))
        else:
            out.append((part[0], int(part[1:])))
    return tuple(out)


def factor_degrees(factor):
    family, n = factor
    if family == "A":
        return tuple(range(2, n + 2))
    if family == "B":
        return tuple(2 * i for i in range(1, n + 1))
    if family == "D":
        return tuple(2 * i for i in range(1, n)) + (n,)
    if family == "I2":
        return (2, n)
    return _EXCEPTIONAL_DEGREES[factor]


def factor_rank(factor):
    return 2 if factor[0] == "I2" else factor[1]


def degrees(factors):
    return tuple(d for f in factors for d in factor_degrees(f))


def rank(factors):
    return sum(factor_rank(f) for f in factors)


def order(factors):
    return math.prod(degrees(factors))


def positive_roots(factors):
    return sum(d - 1 for d in degrees(factors))


def inv_histogram(factors):
    """Coefficients of prod [d]_z over the degrees, by running window sums."""
    coeffs = [1]
    for d in degrees(factors):
        out = []
        window = 0
        for k in range(len(coeffs) + d - 1):
            if k < len(coeffs):
                window += coeffs[k]
            if k >= d:
                window -= coeffs[k - d]
            out.append(window)
        coeffs = out
    return coeffs


def eulerian_numbers(n):
    """Descent counts over the symmetric group on n letters."""
    row = [1]
    for m in range(2, n + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0)
               + (m - k) * (row[k - 1] if k >= 1 else 0)
               for k in range(m)]
    return row


def mahonian_variance(factors):
    return Fraction(sum(d * d - 1 for d in degrees(factors)), 12)


def eulerian_mean_variance(factors):
    """Descent mean and variance: n/2 and (n-2)/12 + 1/m_max per factor."""
    mean = Fraction(0)
    var = Fraction(0)
    for f in factors:
        n = factor_rank(f)
        mean += Fraction(n, 2)
        if n == 1:
            var += Fraction(1, 4)
        else:
            m = f[1] if f[0] == "I2" else _M_MAX[f[0]]
            var += Fraction(n - 2, 12) + Fraction(1, m)
    return mean, var


def histogram_mean_variance(coeffs):
    total = sum(coeffs)
    s1 = sum(k * c for k, c in enumerate(coeffs))
    s2 = sum(k * k * c for k, c in enumerate(coeffs))
    mean = Fraction(s1, total)
    return mean, Fraction(s2, total) - mean * mean


def sup_distance(coeffs):
    """sup_k |s P(X = k) - phi((k - mu)/s)|, probabilities kept exact
    until the final rounding, so big coefficients never overflow."""
    total = sum(coeffs)
    mean, var = histogram_mean_variance(coeffs)
    s = math.sqrt(var)
    mu = float(mean)
    kmin = next(k for k, c in enumerate(coeffs) if c)
    worst = 0.0
    for j in range(kmin - 1, len(coeffs) + 1):
        p = float(Fraction(coeffs[j], total)) if 0 <= j < len(coeffs) else 0.0
        x = (j - mu) / s
        worst = max(worst, abs(s * p - math.exp(-x * x / 2) / math.sqrt(2 * math.pi)))
    return worst
