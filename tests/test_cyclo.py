import random
from fractions import Fraction as F

import pytest

from discforms import cyclo, fqm
from discforms.cyclo import CyclotomicNumber, e_frac
from helpers import cyclotomic_polynomial_reference, random_module


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
    assert r.mod == rr.mod and r.coeffs == rr.coeffs


def test_cyclotomic_polynomials_against_divisor_recursion():
    ref = {}
    for m in range(1, 201):
        ref[m] = cyclotomic_polynomial_reference(m)
        assert list(cyclo.cyclotomic_polynomial(m)) == ref[m], m
    # so reduce() is unchanged: random numbers at every modulus up to 200
    rng = random.Random(29)
    for m in range(1, 201):
        x = CyclotomicNumber(m, {rng.randrange(m): F(rng.randint(-5, 5), rng.randint(1, 4))
                                 for _ in range(6)})
        dense = [x.coeffs.get(e, 0) for e in range(m)]
        assert x.reduce().coeffs == {e: c for e, c in enumerate(cyclo._poly_rem(dense, ref[m]))
                                     if c}


def test_zero_tests_at_large_orders():
    assert len(cyclo.cyclotomic_polynomial(40000)) == 16001
    assert not CyclotomicNumber(40000, {1: 1}).is_zero()
    assert CyclotomicNumber(40000, {7: 1, 20007: 1}).is_zero()
    assert CyclotomicNumber(40000, {e: 1 for e in range(3, 40000, 125)}).is_zero()
    assert len(cyclo.cyclotomic_polynomial(30030)) == 5761
    assert CyclotomicNumber(2310, {e: 1 for e in range(0, 2310, 165)}).is_zero()
    assert not CyclotomicNumber(2310, {0: 1, 165: 1}).is_zero()


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
