"""Exact generating functions and their structure.

gf_inv is the product of z-integers over the degrees, so it never needs
enumeration; each factor [d]_z is applied, smallest degree first, as a
running window sum of the coefficients, linear in their number, over
the first half of each partial product only, since every partial
product is palindromic.  gf_des builds the type A and B rows from power
sums (half of sum_k (ck + 1)^e t^k, repeatedly differenced, then
mirrored) and the type D row the same way from one sequence,
(2k + 1)^n - n 2^(n-1) sum_(j<=k) j^(n-1), which is Brenti's B-to-D
relation through Worpitzky's identity (the gf-des suite of ``coxstat
verify`` checks the rows against window enumeration on small ranks and
against the closed-form moments at rank about 100).  gf_des_plus_ides
builds the A, B and D rows from the two-sided Eulerian counts N(i, j)
(antidiagonal sums, differenced, then mirrored) and writes the I2 row
down.  The E, F and H rows of both are one committed table, which the
gf-des suite checks against the parabolic sum and the reflection walk;
E8 has no des+ides row.  E, F and H des rows and every des+ides row go
through the tally cache in tallies, which stores what was computed.

Root extraction for descent polynomials decides everything in integers.
Square-freeness comes from a gcd modulo one prime, with the exact gcd
only when that one is not constant; Descartes' rule of signs with
bisection isolates the roots; each isolated root is a float Newton
guess, polished by exact Newton steps and certified as the nearest
float by exact signs at the midpoints to its float neighbours, with
exact sign bisection of the interval when it does not certify.  The
residual check evaluates the polynomial at each float root by integer
Horner.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import comb, gcd, inf, ldexp, nextafter
from operator import sub

from .groups import as_descriptor, irreducible_degrees
from .tallies import cached_tally

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
    "TWO_SIDED_RANK_CAP",
]


class ExactPolynomial(namedtuple("ExactPolynomial", "coefficients")):
    """Nonnegative integer coefficients, constant term first."""

    __slots__ = ()

    def __new__(cls, coefficients):
        coeffs = tuple(map(int, coefficients))
        if coeffs and min(coeffs) < 0:
            raise ValueError("coefficients must be nonnegative")
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        return tuple.__new__(cls, (coeffs[:end],))

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
    """The product of the polynomials; one factor comes back as it is."""
    polys = iter(polys)
    out = next(polys, ONE)
    for p in polys:
        out = out * p
    return out


def z_integer(d):
    """[d]_z = 1 + z + ... + z^(d-1)."""
    if d < 1:
        raise ValueError("z-integers need d >= 1")
    return ExactPolynomial((1,) * d)


def gf_inv(d):
    """Length generating function: the product of z-integers over degrees.

    Multiplying by [v]_z replaces each coefficient with the sum of the
    last v coefficients, so each degree costs one running window sum,
    O(len) integer additions, rather than a schoolbook product.  Every
    partial product is palindromic and coefficient k of the next one
    only reads coefficients up to k, so only the first half of each
    partial product is kept, mirrored as far as the next half needs,
    and the degrees are applied smallest first, which keeps every
    partial product as short as it can be.
    """
    d = as_descriptor(d)
    half, deg = [1], 0  # coefficients 0..deg // 2 of the partial product
    for v in sorted(v for f in d.factors for v in irreducible_degrees(f)):
        new = deg + v - 1
        size = new // 2 + 1
        # coefficients deg // 2 + 1..top of the partial product are
        # coefficients deg - top..(deg + 1) // 2 - 1 mirrored
        top = min(deg, size - 1)
        mirrored = reversed(half[deg - top:(deg + 1) // 2])
        sums = list(accumulate(chain(half, mirrored, repeat(0, size - 1 - top)), initial=0))
        # coefficient k of the product is sums[k + 1] - sums[k + 1 - v]
        half = list(map(sub, sums[1:], chain(repeat(0, v - 1), sums)))
        deg = new
    # the middle entry once when deg is even
    return ExactPolynomial(tuple(half + half[::-1][1 - deg % 2:]))


# ---------------------------------------------------------------------------
# descent generating functions

def _difference_and_mirror(half, passes, n):
    """The palindromic row of degree n whose first half is `half` after
    `passes` running differences, each a multiplication by 1 - t."""
    for _ in range(passes):
        half = [half[0], *map(sub, half[1:], half)]
    return half + half[::-1][1 - n % 2:]  # the middle entry once when n is even


def _eulerian_row(c, n):
    """Descent tally of A_n (c = 1) or B_n (c = 2) from power sums.

    sum_k (ck + 1)^e t^k = row(t) / (1 - t)^(e + 1), with e = n + 1 for
    A_n, whose row is that of S_(n+1) (Worpitzky), and e = n for B_n
    (Brenti, Europ. J. Combin. 15, 1994).  Each factor (1 - t) is a
    running difference; rows are palindromic, so only the first half
    of the power sums is differenced, then mirrored.
    """
    e = n + 1 if c == 1 else n
    return _difference_and_mirror([(c * k + 1) ** e for k in range(n // 2 + 1)], e + 1, n)


def _descent_row_d(n):
    """Descent tally of D_n from one sequence, differenced n + 1 times.

    Brenti (Europ. J. Combin. 15, 1994) gives D_n(t) = B_n(t) - n 2^(n-1)
    t A(t), with A(t) the descent row of S_(n-1).  By Worpitzky
    B_n(t) / (1 - t)^(n+1) = sum_k (2k + 1)^n t^k and
    A(t) / (1 - t)^n = sum_k (k + 1)^(n-1) t^k, so
    t A(t) / (1 - t)^(n+1) = sum_k (sum_(j<=k) j^(n-1)) t^k, and
    D_n(t) / (1 - t)^(n+1) = sum_k d_k t^k with
    d_k = (2k + 1)^n - n 2^(n-1) sum_(j<=k) j^(n-1).
    The row is palindromic, so d_0..d_(n//2) are differenced and mirrored.
    """
    scale = n << (n - 1)
    prefix = accumulate(j ** (n - 1) for j in range(n // 2 + 1))
    row = _difference_and_mirror(
        [(2 * k + 1) ** n - scale * s for k, s in enumerate(prefix)], n + 1, n)
    if min(row) < 0:
        raise ArithmeticError(f"negative coefficient in D{n} descent relation")
    return row


# (des row, des+ides row) of each E, F and H factor; E8 has no des+ides row
_EXCEPTIONAL_ROWS = {
    "E6": ((1, 1272, 12183, 24928, 12183, 1272, 1),
           (1, 0, 232, 1168, 5563, 11008, 15896, 11008, 5563, 1168, 232, 0, 1)),
    "E7": ((1, 17635, 309969, 1123915, 1123915, 309969, 17635, 1),
           (1, 0, 945, 10828, 80291, 292488, 652267, 829400, 652267, 292488, 80291,
            10828, 945, 0, 1)),
    "E8": ((1, 881752, 28336348, 169022824, 300247750, 169022824, 28336348, 881752, 1),
           None),
    "F4": ((1, 236, 678, 236, 1), (1, 0, 108, 224, 486, 224, 108, 0, 1)),
    "H3": ((1, 59, 59, 1), (1, 0, 43, 32, 43, 0, 1)),
    "H4": ((1, 2636, 9126, 2636, 1), (1, 0, 756, 3200, 6486, 3200, 756, 0, 1)),
}


def _gf_des_irreducible(label):
    f, n = label.family, label.rank
    if f in ("A", "B"):
        return ExactPolynomial(tuple(_eulerian_row(1 if f == "A" else 2, n)))
    if f == "D":
        return ExactPolynomial(tuple(_descent_row_d(n)))
    if f == "I2":
        return ExactPolynomial((1, 2 * label.m - 2, 1))
    return ExactPolynomial(cached_tally(label, "des", lambda g: _EXCEPTIONAL_ROWS[str(g)][0]))


def gf_des(d):
    """Descent generating function of a descriptor; degree equals the rank."""
    d = as_descriptor(d)
    return product(_gf_des_irreducible(f) for f in d.factors)


# The largest rank whose des+ides row comes from the two-sided counts:
# D100 takes about 0.1 s, and the cost grows about as rank^4.
TWO_SIDED_RANK_CAP = 100


def _two_sided_counts(family, n, k):
    """(e, N) for A_n, B_n or D_n: N(i, j), for i + j <= k, is the
    coefficient of s^i t^j in W(s, t) / ((1 - s)(1 - t))^e, where W(s, t)
    counts (des, ides).  See gf_des_plus_ides for where the counts come
    from; N is symmetric, which the D tables use."""
    if family == "A":
        return n + 2, lambda i, j: comb((i + 1) * (j + 1) + n, n + 1)
    if family == "B":
        return n + 1, lambda i, j: comb(2 * i * j + i + j + n, n)
    # single[a][b] = sum_(m=1..b) C(m(2a + 1) + n - 2, n - 1), for a + b <= k
    single = [list(accumulate((comb(m * (2 * a + 1) + n - 2, n - 1)
                               for m in range(1, k - a + 1)), initial=0))
              for a in range(k + 1)]
    # double[i][j] = sum_(m<=i, q<=j) g(mq), for i <= j and i + j <= k, with
    # g(p) = C(2p + n - 2, n - 1) + 2p C(2p + n - 3, n - 2); one 2-D prefix
    # sum, built a row prefix sum at a time
    double = [[0] * (k + 1)]
    for i in range(1, k // 2 + 1):
        line = accumulate((comb(2 * p + n - 2, n - 1) + 2 * p * comb(2 * p + n - 3, n - 2)
                           for p in range(i, i * (k - i) + 1, i)), initial=0)
        double.append(list(map(int.__add__, double[-1], line)))

    def count(i, j):
        if i > j:
            i, j = j, i
        m = 2 * i * j + i + j
        return (comb(m + n, n) + comb(m + n - 1, n) - (2 * i + 1) * single[i][j]
                - (2 * j + 1) * single[j][i] + double[i][j])

    return n + 1, count


def _des_plus_ides_row(label):
    """des + ides row of one factor, without enumeration.

    For A, B and D, W(t, t) / (1 - t)^(2e) = sum_k M(k) t^k with the
    antidiagonal sums M(k) = sum_(i+j=k) N(i, j), so M(0..n) differenced
    2e times and mirrored is the row of degree 2n; E, F and H read the
    table.  E8 and ranks above TWO_SIDED_RANK_CAP raise ValueError.
    """
    f, n = label.family, label.rank
    if f == "I2":
        return (1, 0, 2 * label.m - 2, 0, 1)
    if f in ("E", "F", "H"):
        row = _EXCEPTIONAL_ROWS[str(label)][1]
        if row is None:
            raise ValueError(f"des+ides of {label} is not tabulated")
        return row
    if n > TWO_SIDED_RANK_CAP:
        raise ValueError(f"des+ides of {label}: rank {n} exceeds the two-sided "
                         f"count cap {TWO_SIDED_RANK_CAP}")
    e, count = _two_sided_counts(f, n, n)
    # N(i, j) = N(j, i): each antidiagonal is its first half twice and
    # its middle entry, when there is one, once
    sums = [sum((1 if 2 * i == k else 2) * count(i, k - i) for i in range(k // 2 + 1))
            for k in range(n + 1)]
    return tuple(_difference_and_mirror(sums, 2 * e, 2 * n))


def gf_des_plus_ides(d):
    """Generating function of des(w) + des(w^-1); degree is twice the rank.

    The statistic is additive across factors, so the product of the
    factor rows is the row of the group.  I2(m) has 1 + (2m - 2) t^2 + t^4:
    every element other than 1 and w0 has one left and one right descent.
    A, B and D factors come from the two-sided counts; with e = n + 2 for
    A_n and e = n + 1 for B_n and D_n,

        sum_(i,j>=0) N(i, j) s^i t^j = W(s, t) / ((1 - s)(1 - t))^e,

    with W(s, t) the (des, ides) generating function, and

        N_A(i, j) = C((i + 1)(j + 1) + n, n + 1)
        N_B(i, j) = C(M + n, n), with M = 2ij + i + j
        N_D(i, j) = C(M + n, n) + C(M + n - 1, n)
                    - (2i + 1) sum_(m=1..j) C(m(2i + 1) + n - 2, n - 1)
                    - (2j + 1) sum_(m=1..i) C(m(2j + 1) + n - 2, n - 1)
                    + sum_(m=1..i) sum_(q=1..j) [C(2mq + n - 2, n - 1)
                                                 + 2mq C(2mq + n - 3, n - 2)]

    (Carlitz, Roselle and Scoville 1966 for A; Petersen, Two-sided
    Eulerian numbers via balls in boxes, Math. Mag. 2013).  One
    derivation covers all three:

    * w is minimal in its (W_I, W_J) double coset iff it has no left
      descent in I and no right descent in J (Bjorner-Brenti,
      Combinatorics of Coxeter Groups, ch. 2), so
      N(i, j) = sum_(K,L in S) C(i, |K|) C(j, |L|) times the number of
      (W_(S-L), W_(S-K)) double cosets.
    * By Burnside, N(i, j) = <F_i, F_j>, with F_i = sum_K C(i, |K|) pi_K
      and pi_K the permutation character of W on W / W_(S-K).
    * F_i(w) is (i + 1)^cyc(w) on S_(n+1) and (2i + 1)^pos(w) on B_n,
      pos counting the positive cycles.  On D_n it is the B value, except
      on elements with no negative cycle, where, with c cycles and fix(w)
      fixed points, it is (2i + 1)^c - fix(w) sum_(m=1..i) (2m)^(c-1).
    * Summing over the B_n cycle index (1 - 2z)^(-(x+y)/2) e^(x(u-1)z),
      with an even number of negative cycles for D, gives N_B and N_D.

    The D class function was read off D4 and D5 class by class and is
    checked, not proved: the tests compare N_D with window enumeration
    on D4-D6 and the walk on D7, and ``coxstat verify`` compares the
    rows with both.  E, F and H factors read a committed table, without
    E8.  Every factor goes through the tally cache (on disk after the
    first run when $COXSTAT_CACHE is set).
    """
    d = as_descriptor(d)
    return product(ExactPolynomial(cached_tally(f, "des_plus_ides", _des_plus_ides_row))
                   for f in d.factors)


# ---------------------------------------------------------------------------
# structure

class StructuralReport(namedtuple(
        "StructuralReport", "palindromic unimodal log_concave no_internal_zeros")):
    __slots__ = ()


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

_RESIDUAL_TOL = 1e-12


class RootBag(namedtuple("RootBag", "values residual_bound")):
    """Negated real roots q_i, descending, with f(z) = lead * prod(z + q_i).

    residual_bound dominates |f(-q_i)| / f(q_i) for every i: the error of
    the alternating evaluation relative to its own all-positive scale,
    computed in exact rational arithmetic at the rounded roots.
    """

    __slots__ = ()


def _sign_at(coeffs, num, shift):
    """Sign of the integer polynomial at num / 2**shift, in integers."""
    acc = _scaled_value(coeffs, num, shift)
    return (acc > 0) - (acc < 0)


def _scaled_value(coeffs, num, shift):
    """2**(shift * deg) times the integer polynomial at num / 2**shift."""
    acc = 0
    for i, c in enumerate(reversed(coeffs)):
        acc = acc * num + (c << (shift * i))
    return acc


def _poly_divmod_int(num, den):
    """Exact division of integer polynomial lists, constant term first."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        lead = num[k + len(den) - 1]
        q, r = divmod(lead, den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num):
        raise ArithmeticError("nonzero remainder in polynomial division")
    return out


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p):
    g = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [c // g for c in p]


def _gcd(a, b):
    """Primitive gcd of integer polynomials by primitive pseudo-remainders."""
    while b:
        r = list(a)
        while len(r) >= len(b):
            k = len(r) - len(b)
            r = [b[-1] * c for c in r[:k]] + [
                b[-1] * c - r[-1] * d for c, d in zip(r[k:-1], b)]
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive(r) if r else []
    return _primitive(a)


_PRIME = 2 ** 61 - 1


def _coprime_mod_p(a, b):
    """True when gcd(a, b) is constant modulo the prime p = 2**61 - 1 and
    p does not divide lead(a); False sends the pair to the exact gcd.

    A non-constant rational gcd g of a and b divides a in Z[x], so lead(g)
    divides lead(a), and g mod p keeps its degree and divides both images.
    A True answer therefore means the rational gcd is constant too.
    """
    p = _PRIME
    if a[-1] % p == 0:
        return False
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            k = len(a) - len(b)
            lead = a.pop() * inv % p
            a[k:] = [(x - lead * c) % p for x, c in zip(a[k:], b)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _taylor_shift(p):
    """Coefficients of p(x + 1): pass i of the synthetic divisions by
    x - 1 replaces p[i:] by its suffix sums, a running sum from the top."""
    top = p[::-1]
    for i in range(len(p) - 1, 0, -1):
        top[:i + 1] = accumulate(top[:i + 1])
    return top[::-1]


def _bisect(coeffs, lo, shift, sa):
    """The float nearest the one root of coeffs in (lo, lo + 1) / 2**shift,
    where coeffs has sign sa just right of lo."""
    while lo / (1 << shift) != (lo + 1) / (1 << shift):
        lo, shift = 2 * lo, shift + 1
        sm = _sign_at(coeffs, lo + 1, shift)
        if sm == 0:
            return (lo + 1) / (1 << shift)
        if sm == sa:
            lo += 1
    return lo / (1 << shift)


def _float_newton(fc, a, b, sa):
    """Safeguarded float Newton for the root of fc (highest degree first)
    on (a, b), where fc has sign sa just right of a; b may be infinite."""
    x = (a + b) / 2 if b < inf else 2 * a + 1
    for _ in range(200):
        f = df = 0.0
        for c in fc:
            df = df * x + f
            f = f * x + c
        if f == 0:
            return x
        if (f > 0) == (sa > 0):
            a = x
        else:
            b = x
        nx = x - f / df if df else x
        if not a < nx < b:
            nx = (a + b) / 2 if b < inf else 2 * x
        if nx == x or nx == a or nx == b:
            return x
        x = nx
    return x


def _estimate(g, e, lo, shift, sa):
    """Float guess of the root of g in 2**e (lo, lo + 1) / 2**shift, found
    on the coefficients of g as floats (at most 2**1000, so the
    conversion cannot overflow) or, above 1, on g reversed at 1 / x.
    The interval ends are below 2**e <= 2**1000 and are rounded by
    integer true division, which takes ends of any length."""
    if e > 1000:
        return None
    drop = max(0, max(abs(c).bit_length() for c in g) - 1000)
    fc = [float(c >> drop) for c in g]
    if shift >= e:
        a, b = lo / (1 << (shift - e)), (lo + 1) / (1 << (shift - e))
    else:
        a, b = float(lo << (e - shift)), float((lo + 1) << (e - shift))
    if b <= 2:
        return _float_newton(fc[::-1], a, b, sa)
    return 1 / _float_newton(fc, 1 / b, 1 / a if a else inf, -sa)


def _root_float(g, e, p, lo, shift):
    """The float nearest the one root of p(y) = g(2**e y) in
    (lo, lo + 1) / 2**shift, on the scale of p.

    A float guess is polished by exact Newton steps, each rounded to a
    float, until it stops moving; it is returned once exact signs at the
    midpoints to its two float neighbours bracket the root.  A guess
    that leaves the interval or does not settle falls back to sign
    bisection of the whole interval.
    """
    dp = _derivative(p)
    # if lo is an exact root, the sign just right of it is that of p'
    sa = _sign_at(p, lo, shift) or _sign_at(dp, lo, shift)
    x = _estimate(g, e, lo, shift, sa)
    if x is None or not 0 < x < inf:
        return _bisect(p, lo, shift, sa)
    y = ldexp(x, -e)
    for _ in range(8):
        m, t = y.as_integer_ratio()
        t = t.bit_length() - 1
        slope = _scaled_value(dp, m, t)
        num, den = m * slope - _scaled_value(p, m, t), slope << t
        if den < 0:
            num, den = -num, -den
        # the step y - p(y) / p'(y) = num / den must stay inside the interval
        if not (lo * den < num << shift < (lo + 1) * den):
            break
        y, y0 = num / den, y
        if y == y0:
            if _brackets(p, lo, shift, sa, y):
                return y
            break
    return _bisect(p, lo, shift, sa)


def _brackets(p, lo, shift, sa, y):
    """True when exact signs put the root of p in (lo, lo + 1) / 2**shift
    strictly between the midpoints from the float y to its two float
    neighbours, so that y is the float nearest that root.  A midpoint
    outside the interval needs no sign: the root is inside."""
    m, t = y.as_integer_ratio()
    t = t.bit_length() - 1
    for side, want in ((0.0, sa), (inf, -sa)):
        mn, tn = nextafter(y, side).as_integer_ratio()
        tn = tn.bit_length() - 1
        top = max(t, tn) + 1
        mid = (m << (top - 1 - t)) + (mn << (top - 1 - tn))  # over 2**top
        if want == sa:
            inside = mid << shift > lo << top
        else:
            inside = mid << shift < (lo + 1) << top
        if inside and _sign_at(p, mid, top) != want:
            return False
    return True


def _positive_roots(g):
    """Positive roots of a square-free integer polynomial with g(0) != 0.

    Descartes bisection (Rouillier-Zimmermann 2004): roots lie below 2^e
    (Fujiwara's bound); node (k, c, q) is the interval 2^e (c, c + 1) / 2^k
    and q has its roots on (0, 1), counted exactly by the sign changes of
    (1 + x)^deg q(1 / (1 + x)) when these are 0 or 1.
    """
    lead = abs(g[-1]).bit_length()
    e = max(0, 1 + max(-((lead - 1 - abs(c).bit_length()) // i)
                       for i, c in enumerate(reversed(g[:-1]), 1)))
    p = [c << (e * i) for i, c in enumerate(g)]
    found = []
    stack = [(0, 0, p)]
    while stack:
        k, c, q = stack.pop()
        # a power of two common to every coefficient changes no sign
        twos = min((a & -a).bit_length() for a in q if a) - 1
        q = [a >> twos for a in q]
        signs = [a > 0 for a in _taylor_shift(q[::-1]) if a]
        v = sum(a != b for a, b in zip(signs, signs[1:]))
        if v == 1:
            found.append(_root_float(g, e, p, c, k))
        elif v > 1:
            left = [a << (len(q) - 1 - i) for i, a in enumerate(q)]
            right = _taylor_shift(left)
            if right[0] == 0:
                found.append((2 * c + 1) / (1 << (k + 1)))
                right = right[1:]
            stack += [(k + 1, 2 * c, left), (k + 1, 2 * c + 1, right)]
    return [ldexp(y, e) for y in found]


def _exact_residual(coeffs, q):
    """|f(-q)| / f(q) as a float, with q = m / 2**s read off the float:
    integer Horner on m with shifts, and one division at the end."""
    m, s = q.as_integer_ratio()
    s = s.bit_length() - 1
    return abs(_scaled_value(coeffs, -m, s)) / _scaled_value(coeffs, m, s)


def negated_real_roots(f):
    """All roots of f written as -q_i with q_i > 0, or a loud failure.

    Round j finds the positive roots of the square-free h_j / h_{j+1}, where
    h_1(x) = f(-x) and h_{j+1} = gcd(h_j, h_j'): the roots of multiplicity
    at least j.  The count is exact, so f is real-rooted iff it is deg f.
    Each gcd is first settled modulo one prime; the exact gcd runs only
    when that one is not constant.
    """
    coeffs = list(f.coefficients)
    if not coeffs:
        raise ValueError("zero polynomial")
    if coeffs[0] == 0:
        raise ValueError("zero constant term: 0 is a root, not of the form -q with q > 0")
    h = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    roots = []
    while len(h) > 1:
        dh = _derivative(h)
        d = [1] if _coprime_mod_p(h, dh) else _gcd(h, dh)
        roots += _positive_roots(_poly_divmod_int(h, d))
        h = d
    if len(roots) < len(coeffs) - 1:
        raise ValueError(f"real-rootedness not confirmed at tolerance: found "
                         f"{len(roots)} of {len(coeffs) - 1} real roots")
    residual = max((_exact_residual(coeffs, q) for q in roots), default=0.0)
    if residual > _RESIDUAL_TOL:
        raise ValueError(f"real-rootedness not confirmed at tolerance: residual "
                         f"{residual:.3e} > {_RESIDUAL_TOL:.3e}")
    return RootBag(tuple(sorted(roots, reverse=True)), residual)


def bernoulli_parameters(bag):
    """p_i = 1/(1 + q_i): success rates of the independent indicator sum."""
    return tuple(1.0 / (1.0 + q) for q in bag.values)


def descent_root_bag(d):
    """Roots of gf_des factor by factor (products repeat roots exactly)."""
    d = as_descriptor(d)
    values = []
    residual = 0.0
    for f in d.factors:
        bag = negated_real_roots(gf_des(f))
        values.extend(bag.values)
        residual = max(residual, bag.residual_bound)
    return RootBag(tuple(sorted(values, reverse=True)), residual)
