"""Scalar q-series, eta quotients, and the scalar-to-vector lift at prime level.

The lift is evaluated through its closed Fourier-coefficient formula: away
from the zero class the coefficient at exponent m is the rescaled pm-th
coefficient of the transformed input, and the zero class adds the input's own
coefficient. Coset sums are never evaluated.
"""

from fractions import Fraction
from itertools import product
from math import floor
from operator import add, sub

from . import fqm
from .errors import ConsistencyError, PreconditionError
from .qseries import VectorValuedQSeries, _stored

# eta_quotient refuses more terms than this: 10^5 terms of {1: 2, 11: 2} take
# about 4 s and of {1: -1} about 7 s (2-CPU x86 host, Python 3.11)
TERM_BOUND = 100_000


class ScalarQSeries:
    """Truncated expansion sum a(l) q^l with exact rational coefficients.

    Exponents are rationals to keep track of fractional leading powers of eta
    quotients; ordinary level-p forms use integer exponents throughout.
    """

    def __init__(self, weight, level, truncation):
        self.weight = Fraction(weight)
        self.level = int(level)
        self.truncation = Fraction(truncation)
        self.coefficients = {}

    def set(self, l, value):
        l = Fraction(l)
        if l > self.truncation:
            raise PreconditionError("exponent exceeds the truncation bound")
        if value:
            self.coefficients[l] = Fraction(value)
        else:
            self.coefficients.pop(l, None)

    def get(self, l):
        return self.coefficients.get(Fraction(l), Fraction(0))

    def is_zero(self):
        return not self.coefficients

    def has_integral_support(self):
        return all(l.denominator == 1 for l in self.coefficients)

    def __mul__(self, c):
        out = ScalarQSeries(self.weight, self.level, self.truncation)
        if c == 1:
            # a copy, not self: set() mutates
            out.coefficients = dict(self.coefficients)
            return out
        for l, v in self.coefficients.items():
            w = v * c
            if w:
                out.coefficients[l] = w
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ScalarQSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __repr__(self):
        return "ScalarQSeries(weight=%s, level=%d, nonzero=%d)" % (
            self.weight, self.level, len(self.coefficients))


def eta_qexp(truncation):
    """q-expansion of eta itself: q^{1/24} times the Euler product."""
    return eta_quotient({1: 1}, truncation)


def _pentagonal(n_terms, d):
    """The terms (e, sign), 0 < e <= n_terms, of prod_m (1 - q^{dm}) beyond its constant 1.

    Euler's pentagonal theorem: prod_m (1 - x^m) = sum_k (-1)^k x^{k(3k-1)/2}
    over all integers k, here with x = q^d; exponents come in increasing order.
    """
    out = []
    k, e = 1, d
    while e <= n_terms:
        # k and -k give the exponents d*k(3k-1)/2 and d*k(3k+1)/2, sign (-1)^k
        sign = -1 if k % 2 else 1
        out.append((e, sign))
        if e + d * k <= n_terms:
            out.append((e + d * k, sign))
        k += 1
        e = d * k * (3 * k - 1) // 2
    return out


def eta_quotient(exponents, truncation):
    """Product of eta(d tau)^{r_d} as a ScalarQSeries up to the truncation.

    The fractional prefix sum(d*r_d)/24 is carried into the exponents exactly.
    Each Euler product prod_m (1 - q^{dm}) is its sparse pentagonal series: a
    positive power multiplies by it r times (list slices), a negative power
    divides by it -r times (a recurrence over the sparse terms), so n terms
    cost O(|r| n^1.5) operations. The weight is sum(r_d)/2 and the level the
    largest d. More than TERM_BOUND terms are refused before any list is built.
    """
    if not exponents:
        raise PreconditionError("an eta quotient needs at least one d:r factor")
    if min(exponents) < 1:
        raise PreconditionError("eta arguments must be positive integers")
    truncation = Fraction(truncation)
    prefix = sum(Fraction(d * r, 24) for d, r in exponents.items())
    n_terms = floor(truncation - prefix)
    if n_terms < 0:
        raise PreconditionError("truncation is below the leading exponent")
    if n_terms > TERM_BOUND:
        raise PreconditionError("%d eta quotient terms exceed the bound %d"
                                % (n_terms, TERM_BOUND))
    poly = [0] * (n_terms + 1)
    poly[0] = 1
    for d, r in sorted(exponents.items()):
        terms = _pentagonal(n_terms, d)
        for _ in range(r):
            out = poly[:]
            for e, sign in terms:
                out[e:] = map(add if sign > 0 else sub, out[e:], poly)
            poly = out
        for _ in range(-r):
            # out[i] = poly[i] - sum sign * out[i - e], in place
            for i in range(1, n_terms + 1):
                acc = poly[i]
                for e, sign in terms:
                    if e > i:
                        break
                    if sign > 0:
                        acc -= poly[i - e]
                    else:
                        acc += poly[i - e]
                poly[i] = acc
    out = ScalarQSeries(Fraction(sum(exponents.values()), 2), max(exponents), truncation)
    for j, c in enumerate(poly):
        if c:
            out.coefficients[prefix + j] = Fraction(c)
    return out


def u_p(f, p):
    """The coefficient-extraction operator: output coefficient at l is a(p*l)."""
    if not isinstance(p, int) or p < 1:
        raise PreconditionError("p must be a positive integer")
    if not f.has_integral_support():
        raise PreconditionError("U_p is implemented for integral exponents")
    out = ScalarQSeries(f.weight, f.level, f.truncation / p)
    for l, v in f.coefficients.items():
        if l % p == 0:
            out.coefficients[l / p] = v
    return out


class NewformData:
    """A level-p eigenform with its Fricke eigenvalue.

    Validates the coefficient recursion a(p*l) = (-eps) * p^{k/2-1} * a(l)
    on every stored index; eps is the eigenvalue of the level involution.
    """

    def __init__(self, series, eps, weight, p):
        if eps not in (1, -1):
            raise PreconditionError("eigenvalue must be +1 or -1")
        weight = Fraction(weight)
        if weight.denominator != 1 or int(weight) % 2:
            raise PreconditionError("weight must be a positive even integer")
        if series.is_zero():
            raise PreconditionError("the zero series is not a newform")
        if not series.has_integral_support():
            raise PreconditionError("newform expansions have integral exponents")
        if series.get(0) != 0:
            raise PreconditionError("newforms are cusp forms")
        if series.get(1) == 0:
            raise PreconditionError("newforms are normalized at the first coefficient")
        self.series = series
        self.eps = eps
        self.weight = int(weight)
        self.p = int(p)
        factor = -eps * Fraction(p) ** ((self.weight - 2) // 2)
        bound = int(series.truncation)
        for l in range(bound // self.p + 1):
            if series.get(self.p * l) != factor * series.get(l):
                raise PreconditionError(
                    "coefficient recursion fails at index %d" % l)


def lift_module(p, n):
    """Discriminant form of the p-rescaled even unimodular lattice of signature (n, 2)."""
    if n % 8 != 2:
        raise PreconditionError("the construction needs n = 2 mod 8")
    out = fqm.trivial_module()
    for _ in range((n + 2) // 2):
        out = fqm.direct_sum(out, fqm.hyperbolic_module(p))
    return out


def vector_lift_closed(a, a_tilde, module, k, p, n, truncation=None):
    """The lift of a level-p form by its closed coefficient formula.

    a is the input expansion, a_tilde the expansion of its image under the
    level involution. The output coefficient at (m, mu) is
    p^{-k/2-n/2} a_tilde(pm), plus a(m) on the zero class, so the inputs fix
    the lift up to min(a.truncation, a_tilde.truncation / p); a larger
    truncation is refused.
    """
    k = Fraction(k)
    if n % 8 != 2:
        raise PreconditionError("the construction needs n = 2 mod 8")
    if any(d != p for d in module.orders) or module.rank != n + 2:
        raise PreconditionError("module must be an elementary p-group of rank n + 2")
    if module.signature() % 8:
        raise PreconditionError("module signature must vanish mod 8")
    expo = (k + n) / 2
    if expo.denominator != 1:
        raise PreconditionError("k + n must be even for a rational rescaling")
    scale = Fraction(1, p ** int(expo))
    known = min(a.truncation, a_tilde.truncation / p)
    if truncation is None:
        truncation = known
    truncation = Fraction(truncation)
    if truncation > known:
        raise PreconditionError(
            "truncation %s exceeds %s, the bound the input expansions determine"
            % (truncation, known))
    out = VectorValuedQSeries(module, k, truncation)
    level = out.level
    # coefficients depend on mu only through Q(mu) and mu = 0, so the mu with
    # one Q value share one component dict; N*Q is read in elements() order
    # without building an element
    ranges = [range(d) for d in module.orders]
    classes = zip(product(*ranges), module.nq_values(ranges))
    next(classes)  # the zero class, filled in below
    by_residue = {}
    for coords, r in classes:
        comp = by_residue.get(r)
        if comp is None:
            comp = by_residue[r] = {}
            for e in range(r, out.k_max + 1, level):
                v = scale * a_tilde.get(Fraction(p * e, level))
                if v:
                    comp[e] = _stored(v)
        if comp:
            out.components[coords] = comp
    zero = {}
    for e in range(0, out.k_max + 1, level):
        v = a.get(e // level) + scale * a_tilde.get(Fraction(p * e, level))
        if v:
            zero[e] = _stored(v)
    if zero:
        out.components[module.zero().coords] = zero
    return out


def kernel_element(nf, n, kappa, truncation=Fraction(3)):
    """Build the lift of a newform satisfying the kernel condition, with a report.

    The condition compares the coefficient-extraction operator with the level
    involution: a(p*l) = -p^{w/2-1} * eps * a(l) for every stored l (w the
    weight). NewformData checks it on construction, so the report's condition
    is always True. The vector-valued lift with transformed input eps * a is
    returned and certified nonzero: a(1) != 0 gives it a nonzero coefficient
    at m = 1/p, so a truncation below 1/p is refused.
    """
    if nf.weight != Fraction(kappa):
        raise PreconditionError("newform weight does not match the lift weight")
    p = nf.p
    truncation = Fraction(truncation)
    if truncation < Fraction(1, p):
        raise PreconditionError("truncation %s is below 1/p = 1/%d" % (truncation, p))
    report = {"condition": True, "first_violation": None}
    module = lift_module(p, n)
    a_tilde = nf.series * nf.eps
    vec = vector_lift_closed(nf.series, a_tilde, module, nf.weight, p, n,
                             truncation=truncation)
    if vec.is_zero():
        raise ConsistencyError("kernel lift vanished identically")
    c = min(vec.components)
    e = min(vec.components[c])
    report["nonzero_witness"] = (c, Fraction(e, vec.level), vec.components[c][e])
    return vec, report
