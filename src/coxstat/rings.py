"""Exact cosine-ring arithmetic for non-crystallographic reflections.

Crystallographic root systems live over the plain integers.  H3, H4 and
I2(m) need the ring of integers generated by 2*cos(pi/m) for their
largest edge label m, represented as Z[x] modulo the minimal polynomial
of 2*cos(2*pi/N) with N = 2m (CycloInt); for H3 and H4, m = 5 and the
generator is the golden ratio.  CycloInt supports mixed arithmetic with
Python ints, which keeps the closure code ring-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .polynomials import _poly_divmod_int

__all__ = [
    "CycloInt",
    "cyclotomic_polynomial",
    "minimal_polynomial_2cos",
    "cos_ring_generator",
]


# ---------------------------------------------------------------------------
# cyclotomic machinery

def cyclotomic_polynomial(N):
    """Coefficients of the N-th cyclotomic polynomial, constant term first.

    Computed by dividing z^N - 1 by the cyclotomic polynomials of the
    proper divisors; exact integer arithmetic throughout.

    >>> cyclotomic_polynomial(12)
    [1, 0, -1, 0, 1]
    """
    if N < 1:
        raise ValueError("N must be positive")
    poly = [-1] + [0] * (N - 1) + [1]  # z^N - 1
    for d in range(1, N):
        if N % d == 0:
            poly = _poly_divmod_int(poly, cyclotomic_polynomial(d))
    return poly


def minimal_polynomial_2cos(N):
    """Minimal polynomial of 2*cos(2*pi/N) over Z, constant term first.

    For N >= 3 this folds the palindromic cyclotomic polynomial through
    the substitution z + 1/z = x: writing Phi_N(z) = z^(d/2) g(z + 1/z)
    and solving the triangular system for g via binomial coefficients.

    >>> minimal_polynomial_2cos(10)   # 2cos(36deg) = phi: x^2 - x - 1
    [-1, -1, 1]
    """
    if N == 1:
        return [-2, 1]
    if N == 2:
        return [2, 1]
    p = cyclotomic_polynomial(N)
    d = len(p) - 1
    if d % 2 == 1 or p != p[::-1]:
        raise ArithmeticError(f"Phi_{N} is not an even palindrome")
    half = d // 2
    g = [0] * (half + 1)
    for k in range(half, -1, -1):
        acc = p[half + k]
        j = 1
        while k + 2 * j <= half:
            acc -= g[k + 2 * j] * comb(k + 2 * j, j)
            j += 1
        g[k] = acc
    return g


@dataclass(frozen=True)
class CycloInt:
    """Element of Z[x]/(modulus), coefficients constant term first.

    The modulus must be monic; every element carries it so mixed-ring
    arithmetic fails loudly instead of silently reducing wrongly.
    """

    coeffs: tuple[int, ...]
    modulus: tuple[int, ...]

    @staticmethod
    def of(value, modulus):
        modulus = tuple(modulus)
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if isinstance(value, int):
            value = [value]
        return CycloInt(CycloInt._reduce(list(value), modulus), modulus)

    @staticmethod
    def _reduce(coeffs, modulus):
        deg = len(modulus) - 1
        for k in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[k]
            if c:
                for i in range(deg + 1):
                    coeffs[k - deg + i] -= c * modulus[i]
        out = coeffs[:deg]
        out += [0] * (deg - len(out))
        return tuple(out)

    def _coerce(self, other):
        if isinstance(other, CycloInt):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return CycloInt.of(other, self.modulus)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloInt(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)), self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloInt(tuple(a - b for a, b in zip(self.coeffs, o.coeffs)), self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloInt(tuple(-a for a in self.coeffs), self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    prod[i + j] += a * b
        return CycloInt(self._reduce(prod, self.modulus), self.modulus)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CycloInt({list(self.coeffs)} mod {list(self.modulus)})"


def cos_ring_generator(m):
    """(generator, one) for the ring containing 2*cos(pi/m), m >= 3.

    2*cos(pi/m) = 2*cos(2*pi/(2m)), so the modulus is the minimal
    polynomial of 2*cos(2*pi/N) at N = 2m and the generator is the class
    of x itself.
    """
    if m < 3:
        raise ValueError("dihedral edge label must be >= 3")
    modulus = tuple(minimal_polynomial_2cos(2 * m))
    gen = CycloInt.of([0, 1], modulus)
    one = CycloInt.of(1, modulus)
    return gen, one
