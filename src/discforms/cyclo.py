"""Exact arithmetic with roots of unity.

A value lives in the group ring Q[x]/(x^M - 1) as (1/den) * sum_e coeffs[e] x^e:
a sparse map from exponents in [0, M) to nonzero integers over one denominator
den >= 1 with gcd(den, *coeffs) = 1. Each group-ring element has exactly one such
form, so operations work on integers and divide out one gcd at the end, and no
Fraction is built per term. Sums and products never canonicalize; reduction to
the canonical basis of Q(zeta_M), the tensor product of the power bases of
Q(zeta_q) over the prime powers q || M, happens for equality tests, zero tests
and rational extraction, which keeps long generator-matrix products cheap. Gauss
sums are the one place that canonicalizes at construction: a histogram sum of up
to M terms, or a product of the summands' Gauss sums for a direct sum, reduced
once, usually has a value of a few terms, so the products of Gauss sums in fqm,
dims and weil stay short.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import cmath

from ._intmat import factorization, integer, rational
from .errors import ConsistencyError, PreconditionError


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
    """Element of Q(zeta_M): (1/den) * sum coeffs[e] * zeta_M^e with integer coeffs."""

    __slots__ = ("mod", "coeffs", "den")

    def __init__(self, mod, coeffs):
        """The number sum c * zeta_mod^e over a dict {e: c} of integers e and int or Fraction c."""
        mod = mod if type(mod) is int and mod > 0 else integer(mod, "cyclotomic moduli", 1)
        if not isinstance(coeffs, dict):
            raise PreconditionError("cyclotomic coefficients must be a dict {exponent: value}")
        out = {}
        for e, c in coeffs.items():
            if c:
                if not hasattr(c, "denominator"):
                    raise PreconditionError("cyclotomic coefficients must be int or Fraction")
                e = (e if type(e) is int else integer(e, "cyclotomic exponents")) % mod
                out[e] = out.get(e, 0) + c
        self.mod = mod
        self.den = den = lcm(*(c.denominator for c in out.values()))
        self.coeffs = {e: c.numerator * (den // c.denominator) for e, c in out.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(r):
        r = r if type(r) is int else Fraction(r)
        return CyclotomicNumber._normalized(1, {0: r.numerator} if r else {}, r.denominator)

    @classmethod
    def _normalized(cls, mod, coeffs, den=1):
        """Wrap a form that is already normal: exponents in [0, mod), nonzero int
        values, den >= 1 and gcd(den, *coeffs) = 1.

        Skips the normalization of __init__; the caller vouches for the form.
        """
        out = object.__new__(cls)
        out.mod = mod
        out.coeffs = coeffs
        out.den = den
        return out

    @classmethod
    def _over(cls, mod, coeffs, den):
        """The number (1/den) * sum coeffs[e] * zeta_mod^e, from int values at
        exponents in [0, mod): drops the zero values and divides out the one gcd.
        """
        coeffs = {e: c for e, c in coeffs.items() if c}
        if den != 1:
            g = gcd(den, *coeffs.values())
            if g != 1:
                den //= g
                coeffs = {e: c // g for e, c in coeffs.items()}
        return cls._normalized(mod, coeffs, den)

    @staticmethod
    def zero():
        return CyclotomicNumber._normalized(1, {})

    @staticmethod
    def one():
        return CyclotomicNumber._normalized(1, {0: 1})

    # -- coercion ----------------------------------------------------------

    def _promoted(self, mod):
        if mod == self.mod:
            return self
        if mod % self.mod:
            raise AssertionError("promotion target must be a multiple")
        f = mod // self.mod
        return CyclotomicNumber._normalized(mod, {e * f: c for e, c in self.coeffs.items()},
                                            self.den)

    @staticmethod
    def _pair(a, b):
        if isinstance(b, (int, Fraction)):
            b = CyclotomicNumber.from_rational(b)
        elif not isinstance(b, CyclotomicNumber):
            return None, None
        m = lcm(a.mod, b.mod)
        return a._promoted(m), b._promoted(m)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _sum(a, b, sign):
        """a + sign * b, for a and b at one modulus: both over the lcm of their dens."""
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        out = dict(a.coeffs) if fa == 1 else {e: c * fa for e, c in a.coeffs.items()}
        for e, c in b.coeffs.items():
            out[e] = out.get(e, 0) + c * fb
        return CyclotomicNumber._over(a.mod, out, den)

    def __add__(self, other):
        a, b = CyclotomicNumber._pair(self, other)
        if a is None:
            return NotImplemented
        return CyclotomicNumber._sum(a, b, 1)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._normalized(self.mod, {e: -c for e, c in self.coeffs.items()},
                                            self.den)

    def __sub__(self, other):
        a, b = CyclotomicNumber._pair(self, other)
        if a is None:
            return NotImplemented
        return CyclotomicNumber._sum(a, b, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            a, b = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
            if len(a.coeffs) == 1:
                # a one-term factor c * zeta^e (a root of unity, or a rational at any
                # modulus) re-maps b's exponents at the lcm: distinct exponents stay
                # distinct, so no term is promoted or collected
                (e1, c1), = a.coeffs.items()
                mod = a.mod if a.mod == b.mod else lcm(a.mod, b.mod)
                fb, shift = mod // b.mod, e1 * (mod // a.mod)
                out = {}
                for e2, c2 in b.coeffs.items():
                    e = e2 * fb + shift
                    if e >= mod:
                        e -= mod
                    out[e] = c1 * c2
                return CyclotomicNumber._over(mod, out, a.den * b.den)
            if a.mod != b.mod:
                a, b = CyclotomicNumber._pair(a, b)
            mod = a.mod
            out = {}
            for e1, c1 in a.coeffs.items():
                for e2, c2 in b.coeffs.items():
                    e = e1 + e2
                    if e >= mod:
                        e -= mod
                    out[e] = out.get(e, 0) + c1 * c2
            return CyclotomicNumber._over(mod, out, a.den * b.den)
        if isinstance(other, Fraction):
            if other.denominator != 1:
                n = other.numerator
                return CyclotomicNumber._over(self.mod, {e: c * n for e, c in self.coeffs.items()},
                                              self.den * other.denominator)
            other = other.numerator
        if not isinstance(other, int):
            return NotImplemented
        if other == 0:
            return CyclotomicNumber._normalized(self.mod, {})
        if other == 1:
            return self
        # gcd(den/g, other/g) = 1 and gcd(den, *coeffs) = 1 keep the form normal
        g = gcd(self.den, other)
        k = other // g
        return CyclotomicNumber._normalized(self.mod, {e: c * k for e, c in self.coeffs.items()},
                                            self.den // g)

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
        m = self.mod
        return CyclotomicNumber._normalized(m, {-e % m: c for e, c in self.coeffs.items()},
                                            self.den)

    # -- canonicalization ---------------------------------------------------

    def reduce(self):
        """Canonical form at the same modulus.

        The basis is the tensor product, over the prime powers q || mod, of the
        power bases 1, w, ..., w^(phi(q)-1) of the q-th root w whose other CRT parts
        are 0: no exponent has top digit p - 1 in its q-part. A term with that digit
        is minus the sum of its p - 1 shifts to the other digits, since the p-th
        roots of unity sum to zero. The primes are cleared one after another, and a
        shift moves no other prime's digit. At a prime power this is the remainder
        modulo Phi_q. The integer coefficients keep their denominator, and one gcd
        normalizes the result.
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
        return CyclotomicNumber._over(mod, out, self.den)

    def is_zero(self):
        return not self.reduce().coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.mod == other.mod and self.den == other.den and self.coeffs == other.coeffs:
            return True
        return (self - other).is_zero()

    __hash__ = None

    def rational_parts(self):
        """(num, den) with the value num/den in lowest terms, den >= 1; refuses irrationals."""
        r = self.reduce()
        if any(e != 0 for e in r.coeffs):
            raise ConsistencyError("value is not rational: %s" % self)
        return r.coeffs.get(0, 0), r.den

    def rational_value(self):
        return Fraction(*self.rational_parts())

    # -- diagnostics ---------------------------------------------------------

    def to_complex(self):
        # c / den is the correctly rounded float of the coefficient, as float(Fraction) is
        w, d = 2j * cmath.pi / self.mod, self.den
        return sum(complex(c / d) * cmath.exp(w * e) for e, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts, den = [], self.den
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            g = gcd(c, den)
            cs = "%d/%d" % (c // g, den // g) if g != den else str(c // g)
            parts.append(cs if e == 0 else "%s * z%d^%d" % (cs, self.mod, e))
        return " + ".join(parts)


def e_frac(q):
    """The root of unity e(q) = exp(2*pi*i*q) for rational q."""
    q = rational(q, "phase")
    return root_of_unity(q.numerator, q.denominator)


def root_of_unity(a, m):
    """e(a/m) for ints a and m >= 1, at the least modulus m/gcd(a, m)."""
    # the exact types first: dims asks for a root on every table row
    if type(a) is not int:
        a = integer(a, "root of unity exponents")
    if type(m) is not int or m < 1:
        m = integer(m, "root of unity orders", 1)
    a %= m
    g = gcd(a, m)
    return CyclotomicNumber._normalized(m // g, {a // g: 1})


def gauss_sum(module, c=1):
    """Sum of e(c*Q(x)) over all x in the module, exactly, for an integer c.

    The value is returned in canonical form at the least modulus N/gcd(N, c*k)
    over the values k/N of Q that occur, N = level: a few-term number, so that
    every product of Gauss sums stays short. It depends on c mod N only, and is
    kept on the module under that key, so a module holds at most N of them and
    callers share one object, which they must not mutate. The module's structure
    kind builds it (see fqm): a _Walk from its Q-value histogram, a _Hyperbolic
    H(n) as n*gcd(c, n), and a _Sum as the product of its summands' Gauss sums.
    """
    c = (c if type(c) is int else integer(c, "Gauss sum multipliers")) % module.level()
    memo = module._gauss
    g = memo.get(c)
    if g is None:
        g = memo[c] = module._structure.gauss(module, c)
    return g


def sqrt_card(module):
    """The positive square root of |A| as an exact cyclotomic number.

    It is x = e(-sig/8) * G(1), from the kept G(1) and the module's signature;
    nothing is rechecked. For a module of the kind _Walk, fqm.milgram_signature
    proved x real with x^2 = |G(1)|^2 = |A| by its exact magnitude check, and
    x > 0 by its float test. A _Sum inherits the proof: its G(1) and e(-sig/8)
    are the products of its summands', so x is the product of their positive
    square roots. A _Hyperbolic H(n) has sig = 0 and G(1) = n.
    """
    return root_of_unity(-module.signature(), 8) * gauss_sum(module, 1)
