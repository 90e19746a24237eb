"""Exact arithmetic with roots of unity.

Values live in the group ring Q[x]/(x^M - 1): a sparse map exponent -> rational
coefficient. Sums and products never canonicalize; reduction to the canonical
basis of Q(zeta_M), the tensor product of the power bases of Q(zeta_q) over the
prime powers q || M, happens for equality tests, zero tests and rational
extraction, which keeps long generator-matrix products cheap. Gauss sums are
the one place that canonicalizes at construction: a histogram sum of up to M
terms, reduced once in O(M * omega(M)), usually has a value of a few terms, so
the products of Gauss sums in fqm, dims and weil stay short.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import cmath

from ._intmat import factorization
from .errors import ConsistencyError


@lru_cache(maxsize=None)
def _basis_plan(m):
    """Per prime p | m, with q = p^e exactly dividing m: (q, q - q/p, shifts).

    By CRT an exponent x is its parts x mod q. The top base-p digit of the q-part
    is p - 1 exactly when x mod q >= q - q/p. The shifts k*m/p (k = 1..p-1) leave
    the parts of the other primes alone and, as m/q is a unit mod p, move that
    digit to each of the others once.
    """
    return tuple((p ** e, p ** e - p ** (e - 1), range(m // p, m, m // p))
                 for p, e in factorization(m))


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
        """Canonical form at the same modulus.

        The basis is the tensor product, over the prime powers q || mod, of the
        power bases 1, w, ..., w^(phi(q)-1) of the q-th root w whose other CRT parts
        are 0: no exponent has top digit p - 1 in its q-part. A term with that digit
        is minus the sum of its p - 1 shifts to the other digits, since the p-th
        roots of unity sum to zero. The primes are cleared one after another, and a
        shift moves no other prime's digit. At a prime power this is the remainder
        modulo Phi_q.
        """
        mod, out = self.mod, dict(self.coeffs)
        for q, top, shifts in _basis_plan(mod):
            for e in [e for e in out if e % q >= top]:
                c = out.pop(e)
                for s in shifts:
                    f = e + s
                    if f >= mod:
                        f -= mod
                    out[f] = out.get(f, 0) - c
        return CyclotomicNumber._normalized(mod, {e: c for e, c in out.items() if c})

    def is_zero(self):
        return not self.reduce().coeffs

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
    that occur, and returned in canonical form: the N-term sum usually has a
    few-term value, and every product of Gauss sums then stays short.
    """
    n, counts = module.q_histogram()
    exps = [(c * k % n, m) for k, m in enumerate(counts) if m]
    g = gcd(n, *(e for e, _m in exps))
    out = {}
    for e, m in exps:
        out[e // g] = out.get(e // g, 0) + m
    return CyclotomicNumber(n // g, out).reduce()


def sqrt_card(module):
    """The positive square root of |A| as an exact cyclotomic number.

    It is x = e(-sig/8) * G(1), from the same cached G(1) and signature at which
    fqm.milgram_signature stopped. That pass proved x real, so x^2 = |G(1)|^2 = |A|
    by its exact magnitude check, and x > 0 by its float test; nothing is rechecked.
    """
    return e_frac(Fraction(-module.signature(), 8)) * module.gauss_sum_one()
