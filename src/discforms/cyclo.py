"""Exact arithmetic with roots of unity.

Values live in the group ring Q[x]/(x^M - 1): a sparse map exponent -> rational
coefficient. Sums and products never canonicalize; reduction modulo the M-th
cyclotomic polynomial happens only for equality tests, zero tests, and rational
extraction, which keeps long generator-matrix products cheap.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import cmath

from ._intmat import is_prime
from .errors import ConsistencyError, PreconditionError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficient tuple (low to high) of the m-th cyclotomic polynomial.

    Phi_m(x) = Phi_r(x^(m/r)) for the radical r of m, and Phi_r is built from
    Phi_1 = x - 1 one prime p at a time by Phi_{np}(x) = Phi_n(x^p) / Phi_n(x).
    """
    if m < 1:
        raise PreconditionError("modulus must be positive")
    poly, rad = [-1, 1], 1
    for p in range(2, m + 1):
        if m % p == 0 and is_prime(p):
            poly, rad = _poly_div_exact(_spread(poly, p), poly), rad * p
    return tuple(_spread(poly, m // rad))


def _spread(poly, k):
    """Coefficients of poly(x^k)."""
    out = [0] * (k * (len(poly) - 1) + 1)
    out[::k] = poly
    return out


def _poly_div_exact(num, den):
    """Exact division of integer polynomials with monic denominator."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise AssertionError("division was not exact")
    return out


def _poly_rem(coeffs, phi):
    """Remainder of a dense coefficient list modulo the monic polynomial phi."""
    deg = len(phi) - 1
    terms = [(j - deg, p) for j, p in enumerate(phi[:deg]) if p]
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j, p in terms:
                rem[i + j] -= c * p
    return rem[:deg]


_ZERO_MEMO = {}


class CyclotomicNumber:
    """Element of Q(zeta_M), stored as a sparse sum of M-th roots of unity."""

    __slots__ = ("mod", "coeffs")

    def __init__(self, mod, coeffs):
        self.mod = mod
        out = {}
        for e, c in coeffs.items():
            if c:
                e %= mod
                out[e] = out.get(e, 0) + c
        self.coeffs = {e: c for e, c in out.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(r):
        r = Fraction(r)
        if r.denominator == 1:
            r = int(r)
        return CyclotomicNumber(1, {0: r} if r else {})

    @classmethod
    def _normalized(cls, mod, coeffs):
        """Wrap coeffs that are already normal: exponents in [0, mod), no zero values.

        Skips the renormalization of __init__; the caller vouches for the form.
        """
        out = object.__new__(cls)
        out.mod = mod
        out.coeffs = coeffs
        return out

    @staticmethod
    def zero():
        return CyclotomicNumber(1, {})

    @staticmethod
    def one():
        return CyclotomicNumber(1, {0: 1})

    # -- coercion ----------------------------------------------------------

    def _promoted(self, mod):
        if mod == self.mod:
            return self
        if mod % self.mod:
            raise AssertionError("promotion target must be a multiple")
        f = mod // self.mod
        return CyclotomicNumber(mod, {e * f: c for e, c in self.coeffs.items()})

    @staticmethod
    def _pair(a, b):
        if isinstance(b, (int, Fraction)):
            b = CyclotomicNumber.from_rational(b)
        elif not isinstance(b, CyclotomicNumber):
            return None, None
        m = lcm(a.mod, b.mod)
        return a._promoted(m), b._promoted(m)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = CyclotomicNumber._pair(self, other)
        if a is None:
            return NotImplemented
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, 0) + c
        return CyclotomicNumber(a.mod, out)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.mod, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        a, b = CyclotomicNumber._pair(self, other)
        if a is None:
            return NotImplemented
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, 0) - c
        return CyclotomicNumber(a.mod, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return CyclotomicNumber(self.mod, {})
            if other == 1:
                return self
            return CyclotomicNumber(self.mod, {e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = CyclotomicNumber._pair(self, other)
        mod = a.mod
        out = {}
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                if e >= mod:
                    e -= mod
                out[e] = out.get(e, 0) + c1 * c2
        return CyclotomicNumber(mod, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        # supported divisors: values with rational |x|^2 (roots of unity,
        # rationals, exact square roots of cardinalities)
        norm = (other * other.conjugate()).rational_value()
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return self * other.conjugate() * (Fraction(1) / norm)

    def __rtruediv__(self, other):
        return CyclotomicNumber.from_rational(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return CyclotomicNumber.one() / self ** (-n)
        out = CyclotomicNumber.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def conjugate(self):
        return CyclotomicNumber(self.mod, {-e % self.mod: c for e, c in self.coeffs.items()})

    # -- canonicalization ---------------------------------------------------

    def reduce(self):
        """Canonical representative modulo the cyclotomic polynomial."""
        phi = cyclotomic_polynomial(self.mod)
        dense = [0] * self.mod
        for e, c in self.coeffs.items():
            dense[e] = c
        rem = _poly_rem(dense, phi)
        return CyclotomicNumber(self.mod, {e: c for e, c in enumerate(rem) if c})

    def is_zero(self):
        if not self.coeffs:
            return True
        key = (self.mod, frozenset(self.coeffs.items()))
        hit = _ZERO_MEMO.get(key)
        if hit is None:
            hit = not self.reduce().coeffs
            _ZERO_MEMO[key] = hit
        return hit

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.mod == other.mod and self.coeffs == other.coeffs:
            return True
        return (self - other).is_zero()

    __hash__ = None

    def rational_value(self):
        r = self.reduce()
        if any(e != 0 for e in r.coeffs):
            raise ConsistencyError("value is not rational: %s" % self)
        return Fraction(r.coeffs.get(0, 0))

    # -- diagnostics ---------------------------------------------------------

    def to_complex(self):
        w = 2j * cmath.pi / self.mod
        return sum(complex(c) * cmath.exp(w * e) for e, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            c = Fraction(c)
            cs = "%d/%d" % (c.numerator, c.denominator) if c.denominator != 1 else str(c.numerator)
            parts.append(cs if e == 0 else "%s * z%d^%d" % (cs, self.mod, e))
        return " + ".join(parts)


def e_frac(q):
    """The root of unity e(q) = exp(2*pi*i*q) for rational q."""
    q = Fraction(q) % 1
    return CyclotomicNumber(q.denominator, {q.numerator: 1})


def gauss_sum(module, c=1):
    """Sum of e(c*Q(x)) over all x in the module, exactly.

    Read from the Q-value histogram: G(c) = sum_k counts[k] * e(c*k/N), with
    integer coefficients, at the least modulus N/gcd(N, c*k) over the values
    that occur.
    """
    n, counts = module.q_histogram()
    exps = [(c * k % n, m) for k, m in enumerate(counts) if m]
    g = gcd(n, *(e for e, _m in exps))
    out = {}
    for e, m in exps:
        out[e // g] = out.get(e // g, 0) + m
    return CyclotomicNumber(n // g, out)


def sqrt_card(module):
    """The positive square root of |A| as an exact cyclotomic number.

    Realized from the quadratic Gauss sum: e(-sig/8) * sum e(Q(x)) is the
    positive real square root of the cardinality whenever the form is
    non-degenerate; the square is checked exactly.
    """
    s = e_frac(Fraction(-module.signature(), 8)) * module.gauss_sum_one()
    if (s * s).rational_value() != module.order():
        raise ConsistencyError("square-root realization failed the magnitude check")
    return s
