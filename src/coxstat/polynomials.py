"""Exact generating functions and their structure.

gf_inv is the product of z-integers over the degrees, so it never needs
enumeration.  gf_des uses classical recurrences for types A, B and the
B-to-D relation for type D (the gf-des suite of ``coxstat verify``
checks them against window enumeration on small ranks); exceptional
factors fall back to the reflection-walk tally.  Root extraction for
descent polynomials runs entirely in exact rational arithmetic (sign
bisection on dyadic points) and only rounds at the very end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .groups import as_descriptor, irreducible_degrees
from .rootsys import cached_tally

__all__ = [
    "ExactPolynomial",
    "StructuralReport",
    "RootBag",
    "z_integer",
    "gf_inv",
    "gf_des",
    "gf_des_plus_ides",
    "product",
    "structural_checks",
    "negated_real_roots",
    "bernoulli_parameters",
    "descent_root_bag",
]


@dataclass(frozen=True)
class ExactPolynomial:
    """Nonnegative integer coefficients, constant term first."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def is_zero(self):
        return not self.coefficients

    def __call__(self, x):
        out = 0 * x if not isinstance(x, (int, Fraction)) else 0
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def __mul__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ExactPolynomial(())
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return ExactPolynomial(tuple(out))

    def to_json(self):
        return json.dumps([str(c) for c in self.coefficients])

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("polynomial JSON must be an array")
        return ExactPolynomial(tuple(int(c) for c in data))


ONE = ExactPolynomial((1,))


def product(polys):
    out = ONE
    for p in polys:
        out = out * p
    return out


def z_integer(d):
    """[d]_z = 1 + z + ... + z^(d-1)."""
    if d < 1:
        raise ValueError("z-integers need d >= 1")
    return ExactPolynomial((1,) * d)


def gf_inv(d):
    """Length generating function: the product of z-integers over degrees."""
    d = as_descriptor(d)
    return product(z_integer(v) for f in d.factors for v in irreducible_degrees(f))


# ---------------------------------------------------------------------------
# descent generating functions

def _descent_row_a(N):
    """Descent tally over the symmetric group on N letters."""
    row = [1]
    for M in range(2, N + 1):
        prev = row
        row = [0] * M
        for k in range(M):
            acc = 0
            if k < len(prev):
                acc += (k + 1) * prev[k]
            if 0 <= k - 1 < len(prev):
                acc += (M - k) * prev[k - 1]
            row[k] = acc
    return row


def _descent_row_b(n):
    row = [1]
    for N in range(1, n + 1):
        prev = row
        row = [0] * (N + 1)
        for k in range(N + 1):
            acc = 0
            if k < len(prev):
                acc += (2 * k + 1) * prev[k]
            if 0 <= k - 1 < len(prev):
                acc += (2 * (N - k) + 1) * prev[k - 1]
            row[k] = acc
    return row


def _descent_row_d(n):
    # subtract the B-only contribution: n * 2^(n-1) * z * (tally of S_{n-1})
    out = _descent_row_b(n)
    scale = n * (1 << (n - 1))
    for k, c in enumerate(_descent_row_a(n - 1)):
        out[k + 1] -= scale * c
    if any(c < 0 for c in out):
        raise ArithmeticError(f"negative coefficient in D{n} descent relation")
    return out


def _gf_des_irreducible(label):
    f, n = label.family, label.rank
    if f == "A":
        return ExactPolynomial(tuple(_descent_row_a(n + 1)))
    if f == "B":
        return ExactPolynomial(tuple(_descent_row_b(n)))
    if f == "D":
        return ExactPolynomial(tuple(_descent_row_d(n)))
    if f == "I2":
        return ExactPolynomial((1, 2 * label.m - 2, 1))
    return ExactPolynomial(cached_tally(label, "des"))


def gf_des(d):
    """Descent generating function of a descriptor; degree equals the rank."""
    d = as_descriptor(d)
    return product(_gf_des_irreducible(f) for f in d.factors)


def gf_des_plus_ides(d):
    """Generating function of des(w) + des(w^-1); degree is twice the rank.

    No closed product formula is known, so every factor is tallied by
    enumeration (cached on disk after the first run).  The statistic is
    multiplicative across factors, which keeps reducible groups cheap.
    """
    d = as_descriptor(d)
    return product(
        ExactPolynomial(cached_tally(f, "des_plus_ides")) for f in d.factors
    )


# ---------------------------------------------------------------------------
# structure

@dataclass(frozen=True)
class StructuralReport:
    palindromic: bool
    unimodal: bool
    log_concave: bool
    no_internal_zeros: bool


def structural_checks(f):
    """Shape report for a coefficient sequence.

    log_concave checks a_i^2 >= a_{i-1} a_{i+1} literally; with internal
    zeros those inequalities hold vacuously, so read log_concave together
    with no_internal_zeros.
    """
    c = f.coefficients
    if not c:
        raise ValueError("zero polynomial has no structure to report")
    palindromic = c == c[::-1]
    rising = True
    unimodal = True
    for a, b in zip(c, c[1:]):
        if rising:
            if b < a:
                rising = False
        elif b > a:
            unimodal = False
            break
    log_concave = all(
        c[i] * c[i] >= c[i - 1] * c[i + 1] for i in range(1, len(c) - 1)
    )
    support = [i for i, v in enumerate(c) if v]
    no_internal_zeros = len(support) == support[-1] - support[0] + 1
    return StructuralReport(palindromic, unimodal, log_concave, no_internal_zeros)


# ---------------------------------------------------------------------------
# real roots of descent polynomials

@dataclass(frozen=True)
class RootBag:
    """Negated real roots q_i, descending, with f(z) = lead * prod(z + q_i).

    residual_bound dominates |f(-q_i)| / f(q_i) for every i: the error of
    the alternating evaluation relative to its own all-positive scale,
    computed in exact rational arithmetic at the rounded roots.
    """

    values: tuple[float, ...]
    residual_bound: float


def _sign_at(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _deflate_minus_one(coeffs):
    """Divide by (z + 1) exactly while -1 stays a root."""
    count = 0
    while len(coeffs) > 1 and sum(c * (-1) ** i for i, c in enumerate(coeffs)) == 0:
        out = [0] * (len(coeffs) - 1)
        carry = coeffs[-1]
        for k in range(len(coeffs) - 2, -1, -1):
            out[k] = carry
            carry = coeffs[k] - carry
        if carry != 0:
            raise ArithmeticError("inexact deflation")
        coeffs = out
        count += 1
    return coeffs, count


def _isolate_roots(coeffs, lo, hi, target, max_rounds=18):
    """Bracket `target` sign changes of the polynomial on (lo, hi)."""
    pts = [lo, hi]
    signs = [_sign_at(coeffs, lo), _sign_at(coeffs, hi)]
    exact = []
    for _ in range(max_rounds + 1):
        brackets = []
        for (a, sa), (b, sb) in zip(zip(pts, signs), zip(pts[1:], signs[1:])):
            if sa != 0 and sb != 0 and sa != sb:
                brackets.append((a, b))
        if len(brackets) + len(exact) == target:
            return brackets, exact
        if len(brackets) + len(exact) > target:
            break
        new_pts = [pts[0]]
        new_signs = [signs[0]]
        for (a, sa), (b, sb) in zip(zip(pts, signs), zip(pts[1:], signs[1:])):
            mid = (a + b) / 2
            sm = _sign_at(coeffs, mid)
            if sm == 0 and mid not in exact:
                exact.append(mid)
            new_pts.extend([mid, b])
            new_signs.extend([sm, sb])
        pts, signs = new_pts, new_signs
    raise ValueError(
        f"real-rootedness not confirmed at tolerance: found "
        f"{len(brackets) + len(exact)} of {target} real roots"
    )


def _bisect(coeffs, a, b, max_iter=200):
    sa = _sign_at(coeffs, a)
    for _ in range(max_iter):
        mid = (a + b) / 2
        sm = _sign_at(coeffs, mid)
        if sm == 0:
            return mid
        if sm == sa:
            a = mid
        else:
            b = mid
        if float(a) == float(b):
            break
    return (a + b) / 2


def _exact_residual(coeffs, q):
    """|f(-q)| / f(q) as a float, with q lifted to an exact binary rational."""
    x = Fraction(q)
    num = Fraction(0)
    den = Fraction(0)
    for c in reversed(coeffs):
        num = num * -x + c
        den = den * x + c
    return float(abs(num) / den)


def negated_real_roots(f, tol=1e-12):
    """All roots of f written as -q_i with q_i > 0, or a loud failure.

    Exact deflation peels off every factor of (z + 1); the rest is sign
    bisection on dyadic rationals, using the palindromic mirror q -> 1/q
    when available so the search stays inside (0, 1).
    """
    coeffs = list(f.coefficients)
    if len(coeffs) <= 1:
        if not coeffs:
            raise ValueError("zero polynomial")
        return RootBag((), 0.0)
    if coeffs[0] == 0:
        raise ValueError("zero constant term: 0 is a root, not of the form -q with q > 0")
    coeffs, ones = _deflate_minus_one(coeffs)
    roots = [1.0] * ones
    deg = len(coeffs) - 1
    if deg > 0:
        # roots of h(x) = f(-x) on the positive axis
        h = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
        palindromic = coeffs == coeffs[::-1]
        if palindromic:
            if deg % 2 == 1:
                raise ArithmeticError("odd palindromic degree should have deflated at -1")
            lo, hi, target = Fraction(0), Fraction(1), deg // 2
        else:
            bound = Fraction(1) + max(abs(c) for c in h) / abs(h[-1])
            lo, hi, target = Fraction(0), bound, deg
        brackets, exact = _isolate_roots(h, lo, hi, target)
        found = [float(x) for x in exact]
        for a, b in brackets:
            found.append(float(_bisect(h, a, b)))
        if palindromic:
            found += [1.0 / q for q in found]
        roots.extend(found)
    residual = max((_exact_residual(f.coefficients, q) for q in roots), default=0.0)
    if residual > tol:
        raise ValueError(
            f"real-rootedness not confirmed at tolerance: residual {residual:.3e} > {tol:.3e}"
        )
    return RootBag(tuple(sorted(roots, reverse=True)), residual)


def bernoulli_parameters(bag):
    """p_i = 1/(1 + q_i): success rates of the independent indicator sum."""
    return tuple(1.0 / (1.0 + q) for q in bag.values)


def descent_root_bag(d, tol=1e-12):
    """Roots of gf_des factor by factor (products repeat roots exactly)."""
    d = as_descriptor(d)
    values = []
    residual = 0.0
    for f in d.factors:
        bag = negated_real_roots(gf_des(f), tol=tol)
        values.extend(bag.values)
        residual = max(residual, bag.residual_bound)
    return RootBag(tuple(sorted(values, reverse=True)), residual)
