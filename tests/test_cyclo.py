import random
from fractions import Fraction as F
from math import gcd

import pytest

from discforms import cyclo, fqm
from discforms.cyclo import CyclotomicNumber, e_frac
from discforms._intmat import is_prime
from discforms.errors import ConsistencyError
from helpers import (FractionCyclotomicReference, cyclotomic_polynomial_radical,
                     cyclotomic_polynomial_reference, phi_remainder_reference, random_module)


def raw(x):
    """The stored form of a number: equal values at one modulus have one raw reduced form."""
    return x.mod, x.coeffs, x.den


def test_e_frac_basics():
    assert e_frac(0) == 1
    assert e_frac(F(1, 2)) == -1
    assert e_frac(F(1, 8)) ** 8 == 1
    assert e_frac(F(1, 8)) ** 4 == -1
    assert e_frac(F(5, 4)) == e_frac(F(1, 4))
    assert e_frac(F(1, 3)) * e_frac(F(-1, 3)) == 1


def test_sum_of_all_roots_vanishes():
    for n in (2, 3, 5, 7, 12):
        total = CyclotomicNumber.zero()
        for j in range(n):
            total = total + e_frac(F(j, n))
        assert total.is_zero()


def test_ring_axioms_random():
    rng = random.Random(11)

    def rand_value():
        mod = rng.choice([3, 4, 5, 8, 12])
        out = CyclotomicNumber.zero()
        for _ in range(rng.randint(1, 3)):
            out = out + e_frac(F(rng.randrange(mod), mod)) * F(rng.randint(-4, 4))
        return out

    for _ in range(60):
        x, y, z = rand_value(), rand_value(), rand_value()
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x + y == y + x


def test_reduce_idempotence():
    x = e_frac(F(1, 5)) + e_frac(F(2, 5)) * F(3, 7) + 2
    r = x.reduce()
    rr = r.reduce()
    assert raw(r) == raw(rr)


def _random_number(rng, m, terms):
    return CyclotomicNumber(m, {rng.randrange(m): F(rng.randint(-5, 5), rng.randint(1, 4))
                                for _ in range(terms)})


def _is_prime_power(m):
    p = next(p for p in range(2, m + 1) if m % p == 0)
    while m % p == 0:
        m //= p
    return m == 1


def _squarefree_orders(bound):
    """{k: every squarefree order below bound with exactly k prime factors}."""
    primes = [p for p in range(2, bound // 2 + 1) if is_prime(p)]
    out = {}

    def walk(start, prod, k):
        out.setdefault(k, []).append(prod)
        for i in range(start, len(primes)):
            if prod * primes[i] >= bound:
                break
            walk(i + 1, prod * primes[i], k + 1)

    walk(0, 1, 0)
    return out


def _with_oracle(rng, m, terms):
    """A random number at modulus m, and the same number in the Fraction oracle."""
    coeffs = {rng.randrange(2 * m): rng.choice([rng.randint(-9, 9),
                                                F(rng.randint(-9, 9), rng.randint(1, 12))])
              for _ in range(terms)}
    return CyclotomicNumber(m, coeffs), FractionCyclotomicReference(m, coeffs)


def _agrees(x, ref):
    """x is normal and has the oracle's value term by term, its repr byte for byte."""
    assert isinstance(x, CyclotomicNumber) and x.den >= 1
    assert all(type(c) is int and c and 0 <= e < x.mod for e, c in x.coeffs.items())
    assert gcd(x.den, *x.coeffs.values()) == 1
    assert (x.mod, {e: F(c, x.den) for e, c in x.coeffs.items()}) == (ref.mod, ref.coeffs)
    assert repr(x) == repr(ref)
    assert x.to_complex() == ref.to_complex()


def test_ring_operations_match_the_fraction_oracle():
    rng = random.Random(1919)
    moduli = list(range(1, 121)) + [30030] * 8
    divisors_30030 = [d for d in range(1, 30031) if 30030 % d == 0]
    for m in moduli:
        x, xr = _with_oracle(rng, m, rng.randint(0, 6))
        n = rng.choice(divisors_30030) if m == 30030 else rng.randint(1, 120)
        y, yr = _with_oracle(rng, n, rng.randint(0, 6))
        k = rng.randint(-6, 6)
        q = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
        # u = r * e(j/n) has rational |u|^2, so it is a supported divisor
        j, r = rng.randrange(n), F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        u, ur = CyclotomicNumber(n, {j: r}), FractionCyclotomicReference(n, {j: r})
        e, f = rng.randint(-3, 4), rng.randint(0, 3) if m < 30030 else 2
        pairs = [(x + y, xr + yr), (x - y, xr - yr), (x * y, xr * yr), (y * x, yr * xr),
                 (x + k, xr + k), (k + x, k + xr), (x - q, xr - q), (q - x, q - xr),
                 (x * k, xr * k), (k * x, k * xr), (x * q, xr * q), (q * x, q * xr),
                 (x + q, xr + q), (-x, -xr), (x.conjugate(), xr.conjugate()),
                 (x.reduce(), xr.reduce()), ((x * y).reduce(), (xr * yr).reduce()),
                 (x / u, xr / ur), (q / u, q / ur), (x / q, xr / q), (u ** e, ur ** e),
                 (x ** f, xr ** f)]
        if k:
            pairs += [(x / k, xr / k), (k / u, k / ur)]
        for got, want in pairs:
            _agrees(got, want)
        # zero tests and equality, with values that vanish without looking like it
        # the p-th roots of unity, p the least prime factor of n (2 for n = 1), sum to zero
        p = next((p for p in range(2, n + 1) if n % p == 0), 2)
        roots = CyclotomicNumber(p, {i: 1 for i in range(p)})
        roots_r = FractionCyclotomicReference(p, {i: 1 for i in range(p)})
        for a, ar in ((x, xr), (x - x.reduce(), xr - xr.reduce()), (x * q - q * x, xr * q - q * xr),
                      (roots * x, roots_r * xr), (x + roots * q, xr + roots_r * q)):
            assert a.is_zero() == ar.is_zero()
            for b, br in ((y, yr), (x, xr), (k, k), (q, q), (x + roots, xr + roots_r)):
                assert (a == b) == (ar == br)
        # rational values: |u|^2, and rationals hidden behind a vanishing sum
        for a, ar in ((u * u.conjugate(), ur * ur.conjugate()), (roots * x + q, roots_r * xr + q),
                      (x - x + k, xr - xr + k)):
            assert a.rational_value() == ar.rational_value()
            assert type(a.rational_value()) is F
        if any(xr.reduce().coeffs.keys() - {0}):
            with pytest.raises(ConsistencyError):
                x.rational_value()
        else:
            assert x.rational_value() == xr.rational_value()


def test_inexact_coefficients_are_refused():
    for bad in (0.5, 1.0, complex(1, 1)):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            CyclotomicNumber(4, {1: bad})


def test_cyclotomic_polynomials_against_divisor_recursion():
    ref = {}
    for m in range(1, 201):
        ref[m] = cyclotomic_polynomial_reference(m)
        assert list(cyclotomic_polynomial_radical(m)) == ref[m], m
    # reduce() keeps the value: random numbers at every modulus up to 200 have the
    # Phi_m remainder of their reduced form, which is that remainder itself at 1 and
    # at prime powers
    rng = random.Random(29)
    for m in range(1, 201):
        x = _random_number(rng, m, 6)
        rem = phi_remainder_reference(x)
        assert phi_remainder_reference(x.reduce()) == rem, m
        if m == 1 or _is_prime_power(m):
            assert raw(x.reduce()) == raw(CyclotomicNumber(m, rem)), m


def test_zero_tests_at_large_orders():
    rng = random.Random(40000)
    for m, phi in ((40000, 16000), (30030, 5760)):
        assert len(cyclotomic_polynomial_radical(m)) == phi + 1
        # the canonical basis has phi(m) elements: random coefficients on every root fill it
        full = CyclotomicNumber(m, {e: rng.randint(1, 10 ** 9) for e in range(m)})
        assert len(full.reduce().coeffs) == phi
    assert not CyclotomicNumber(40000, {1: 1}).is_zero()
    assert CyclotomicNumber(40000, {7: 1, 20007: 1}).is_zero()
    assert CyclotomicNumber(40000, {e: 1 for e in range(3, 40000, 125)}).is_zero()
    assert CyclotomicNumber(2310, {e: 1 for e in range(0, 2310, 165)}).is_zero()
    assert not CyclotomicNumber(2310, {0: 1, 165: 1}).is_zero()


def test_zero_tests_at_order_30030():
    # the sums of all 10010-th and of all 14-th roots of unity, at an order where
    # Phi_m is dense (5761 terms)
    assert CyclotomicNumber(30030, {e: 1 for e in range(0, 30030, 3)}).is_zero()
    assert CyclotomicNumber(30030, {e: 1 for e in range(0, 30030, 2145)}).is_zero()
    assert not CyclotomicNumber(30030, {e: 1 for e in range(0, 30030, 3) if e != 30027}).is_zero()
    assert not CyclotomicNumber(30030, {e: 1 for e in range(2145, 30030, 2145)}).is_zero()
    # the same sums over a denominator
    assert CyclotomicNumber(30030, {e: F(1, 7) for e in range(0, 30030, 3)}).is_zero()
    assert not CyclotomicNumber(30030, {e: F(1, 7) for e in range(0, 30030, 3) if e}).is_zero()
    assert cyclo.sqrt_card(fqm.hyperbolic_module(31)) ** 2 == 961


def test_reduce_against_phi_remainder_at_every_order():
    rng = random.Random(300)
    for m in range(1, 301):
        # the sums of the p-th roots of unity, one per prime p | m
        roots = [CyclotomicNumber(m, {k * (m // p): 1 for k in range(p)})
                 for p in range(2, m + 1) if m % p == 0 and is_prime(p)]
        for _ in range(3):
            x = _random_number(rng, m, rng.randint(1, 8))
            rem = phi_remainder_reference(x)
            assert x.is_zero() == (not rem), m
            assert raw(x.reduce()) == raw(CyclotomicNumber(m, rem).reduce()), m
            # numbers that vanish without looking like it
            for z in [x - CyclotomicNumber(m, rem)] + [x * r for r in roots]:
                assert z.is_zero(), m


def test_reduce_is_the_phi_remainder_at_prime_powers():
    rng = random.Random(7)
    orders = [m for m in range(2, 301) if _is_prime_power(m)] + [512, 625, 729, 1331, 2187, 2401]
    for m in orders:
        for _ in range(3):
            x = _random_number(rng, m, rng.randint(1, 12))
            assert raw(x.reduce()) == raw(CyclotomicNumber(m, phi_remainder_reference(x))), m


def test_reduce_is_idempotent_and_multiplicative():
    rng = random.Random(31)
    for m in [rng.randrange(1, 600) for _ in range(80)] + [60, 210, 720, 2310]:
        x, y = _random_number(rng, m, 8), _random_number(rng, m, 8)
        r = x.reduce()
        assert raw(r.reduce()) == raw(r), m
        assert raw((x * y).reduce()) == raw((r * y.reduce()).reduce()), m
        assert x * y == r * y.reduce(), m


def test_divisor_root_sums_vanish_at_squarefree_orders():
    rng = random.Random(2026)
    by_factors = _squarefree_orders(40000)
    assert by_factors[6] == [30030, 39270]
    for k in range(2, 7):
        for m in rng.sample(by_factors[k], min(3, len(by_factors[k]))):
            for d in (d for d in range(2, m + 1) if m % d == 0):
                roots = {e: 1 for e in range(0, m, m // d)}
                assert CyclotomicNumber(m, roots).is_zero(), (m, d)
                e = rng.choice(list(roots))
                roots[e] += F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                assert not CyclotomicNumber(m, roots).is_zero(), (m, d, e)


def test_numeric_embedding_of_exact_identities():
    rng = random.Random(5)
    for _ in range(25):
        a = F(rng.randrange(1, 24), 24)
        b = F(rng.randrange(1, 24), 24)
        lhs = (e_frac(a) * e_frac(b)).to_complex()
        rhs = e_frac(a + b).to_complex()
        assert abs(lhs - rhs) < 1e-10
        x = e_frac(a) + e_frac(b) * F(2, 3)
        y = x * x.conjugate()
        assert abs(y.to_complex().imag) < 1e-10


def test_division_by_units_and_rationals():
    x = e_frac(F(3, 8)) + 2
    assert (x / 2) * 2 == x
    assert (x / e_frac(F(1, 5))) * e_frac(F(1, 5)) == x
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_gauss_sum_examples():
    assert cyclo.gauss_sum(fqm.trivial_module(), 1) == 1
    assert cyclo.gauss_sum(fqm.trivial_module(), 7) == 1
    a = fqm.cyclic_module(2, F(1, 4))
    assert cyclo.gauss_sum(a, 1) == 1 + e_frac(F(1, 4))


def test_gauss_sum_magnitude_on_random_modules():
    rng = random.Random(2024)
    for _ in range(50):
        a = random_module(rng)
        g = a.gauss_sum_one()
        assert (g * g.conjugate()).rational_value() == a.order()
        assert abs(abs(g.to_complex()) ** 2 - a.order()) < 1e-10 * a.order()


def test_sqrt_card():
    assert cyclo.sqrt_card(fqm.trivial_module()) == 1
    a4 = fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.cyclic_module(2, F(1, 4)))
    assert a4.order() == 4
    assert cyclo.sqrt_card(a4) == 2
    rng = random.Random(99)
    for _ in range(50):
        a = random_module(rng)
        s = cyclo.sqrt_card(a)
        assert (s * s).rational_value() == a.order()
        # the realization is the positive real square root
        assert s.to_complex().real > 0 and abs(s.to_complex().imag) < 1e-9
        assert ((1 / s) * s) == 1
