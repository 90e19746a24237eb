"""Numerical evaluation of the upper incomplete gamma function and the
integral V_kappa(a, b) = int_0^inf Gamma(kappa-1, a^2 y) e^{-b^2 y - 1/y} y^{-3/2} dy.

Quadrature uses double-exponential rules on the branches (0, 1] and [1, inf);
the integrand's essential decay at both endpoints makes the trapezoid sums
converge at machine precision within a few refinement levels.
"""

import math
from collections import namedtuple

from .errors import PreconditionError, ConsistencyError


class ToleranceNotMet(ConsistencyError):
    """The adaptive refinement stopped before reaching the requested accuracy."""


QuadratureResult = namedtuple("QuadratureResult", "value error_estimate evaluations")


def _finite(*args):
    """The arguments as floats; NaN or an infinity is a precondition failure."""
    out = tuple(float(v) for v in args)
    if not all(map(math.isfinite, out)):
        raise PreconditionError("arguments must be finite, got %s" % ", ".join(map(repr, out)))
    return out


def _gamma(s):
    """math.gamma(s); an overflow (s above about 171.6) is a precondition failure."""
    try:
        return math.gamma(s)
    except OverflowError:
        raise PreconditionError("Gamma(%r) is not a finite float" % s) from None


def inc_gamma_upper(s, x):
    """Upper incomplete gamma Gamma(s, x) for s > 0, x >= 0.

    Series for the lower function below the crossover, continued fraction
    above; relative accuracy near machine precision.
    """
    s, x = _finite(s, x)
    if s <= 0 or x < 0:
        raise PreconditionError("requires s > 0 and x >= 0")
    gamma_s = _gamma(s)
    if x == 0:
        return gamma_s
    if x < s + 1:
        # lower series: gamma(s,x) = x^s e^-x sum x^n / (s (s+1) ... (s+n))
        term = 1.0 / s
        total = term
        n = 0
        while True:
            n += 1
            term *= x / (s + n)
            total += term
            if abs(term) < abs(total) * 1e-17 or n > 10_000:
                break
        lower = total * math.exp(-x + s * math.log(x))
        return gamma_s - lower
    # modified Lentz continued fraction for the upper function
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + s * math.log(x)) * h


# the double-exponential trapezoid: step 1/2^level on [-T_MAX, T_MAX], levels 0..MAX_LEVEL
T_MAX = 6.5
MAX_LEVEL = 10
# the relative accuracy v_kappa asks of its quadrature
REL_TOL = 1e-10


def _de_nodes(level):
    """Abscissas of the double-exponential trapezoid new to this level."""
    h = 1.0 / (1 << level)
    if level == 0:
        ts = [0.0]
        k = 1
        while k * h <= T_MAX:
            ts.extend((k * h, -k * h))
            k += 1
        return h, ts
    ts = []
    k = 1
    while k * h <= T_MAX:
        ts.extend((k * h, -k * h))
        k += 2
    return h, ts


def _de_integrate(f, transform, tol):
    """Trapezoid sums under a double-exponential change of variables.

    transform(t) yields (y, weight) or None when the weight underflows.
    """
    evaluations = 0
    total = 0.0
    prev = None
    err = float("inf")
    for level in range(MAX_LEVEL + 1):
        h, ts = _de_nodes(level)
        part = 0.0
        for t in ts:
            yw = transform(t)
            if yw is None:
                continue
            y, w = yw
            v = f(y)
            evaluations += 1
            part += v * w
        total = (0.0 if level == 0 else total / 2.0) + part * h
        if prev is not None:
            err = abs(total - prev)
            scale = max(abs(total), 1e-300)
            if err <= tol * scale and level >= 3:
                return total, err, evaluations
        prev = total
    return total, err, evaluations


def _branch_low(t):
    # (0, 1]: y = (1 + tanh((pi/2) sinh t)) / 2
    u = (math.pi / 2) * math.sinh(t)
    if abs(u) > 350:
        return None
    sech2 = 1.0 / math.cosh(u) ** 2
    y = 0.5 * (1.0 + math.tanh(u))
    w = (math.pi / 4) * math.cosh(t) * sech2
    if y <= 0.0 or w == 0.0:
        return None
    return y, w


def _branch_high(t):
    # [1, inf): y = 1 + exp((pi/2) sinh t)
    u = (math.pi / 2) * math.sinh(t)
    if u > 600 or u < -600:
        return None
    ey = math.exp(u)
    y = 1.0 + ey
    w = ey * (math.pi / 2) * math.cosh(t)
    return y, w


def v_kappa(kappa, a, b):
    """The special integral, split at y = 1, to the relative accuracy REL_TOL (adaptive)."""
    kappa, a, b = _finite(kappa, a, b)
    if kappa <= 1:
        raise PreconditionError("requires kappa > 1")
    gamma = _gamma(kappa - 1.0)
    a2 = a * a
    b2 = b * b

    def integrand(y):
        expo = -b2 * y - 1.0 / y
        if expo < -700:
            return 0.0
        g = inc_gamma_upper(kappa - 1.0, a2 * y) if a2 * y > 0 else gamma
        return g * math.exp(expo) * y ** -1.5

    v1, e1, n1 = _de_integrate(integrand, _branch_low, REL_TOL / 2)
    v2, e2, n2 = _de_integrate(integrand, _branch_high, REL_TOL / 2)
    value = v1 + v2
    err = e1 + e2
    if not math.isfinite(value):
        raise PreconditionError("V_kappa(%r, %r, %r) is not a finite float" % (kappa, a, b))
    if err > REL_TOL * max(abs(value), 1e-300) * 4:
        raise ToleranceNotMet("quadrature error %.3e exceeds the target" % err)
    return QuadratureResult(value=value, error_estimate=err, evaluations=n1 + n2)
