import math

import pytest

from discforms import specfun as sf
from discforms.errors import PreconditionError


def simpson_upper_gamma(s, x, n=200_000, span=60.0):
    """Quadrature oracle for the tail integral of t^{s-1} e^{-t}."""
    hi = x + span
    h = (hi - x) / n
    total = 0.0
    for i in range(n + 1):
        t = x + i * h
        w = 1 if i in (0, n) else (4 if i % 2 else 2)
        total += w * (t ** (s - 1) * math.exp(-t) if t > 0 else 0.0)
    return total * h / 3


class TestIncompleteGamma:
    def test_exponential_closed_form(self):
        for x in (0.0, 0.25, 1.0, 3.5, 15.0):
            assert sf.inc_gamma_upper(1, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_at_zero_is_gamma(self):
        assert sf.inc_gamma_upper(2, 0) == pytest.approx(1.0, rel=1e-14)
        assert sf.inc_gamma_upper(0.5, 0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_against_quadrature_oracle(self):
        for s, x in ((1.5, 1.0), (2.5, 0.3), (3.0, 7.0)):
            ref = simpson_upper_gamma(s, x)
            assert sf.inc_gamma_upper(s, x) == pytest.approx(ref, rel=1e-9)

    def test_domain_guard(self):
        with pytest.raises(PreconditionError):
            sf.inc_gamma_upper(0, 1)
        with pytest.raises(PreconditionError):
            sf.inc_gamma_upper(1, -1)


class TestVkappa:
    @pytest.mark.parametrize("kappa", [1.5, 2.0, 2.5, 4.0])
    def test_closed_form_at_origin(self, kappa):
        r = sf.v_kappa(kappa, 0, 0)
        want = math.gamma(kappa - 1) * math.sqrt(math.pi)
        assert abs(r.value - want) <= 1e-10 * want
        assert r.error_estimate >= 0 and r.evaluations > 0

    def test_even_in_both_arguments(self):
        r = sf.v_kappa(2.5, 1.3, 0.8)
        assert r.value == sf.v_kappa(2.5, -1.3, 0.8).value
        assert r.value == sf.v_kappa(2.5, 1.3, -0.8).value
        assert r.value == sf.v_kappa(2.5, -1.3, -0.8).value

    def test_dominated_by_origin_value(self):
        top = sf.v_kappa(2.5, 0, 0).value
        for a in (0.0, 0.7, 2.0):
            for b in (0.0, 0.7, 2.0):
                assert sf.v_kappa(2.5, a, b).value <= top + 1e-12

    def test_monotone_grid(self):
        vals_a = [sf.v_kappa(2.5, a, 0.5).value for a in (0, 0.5, 1, 2, 4)]
        assert all(x > y for x, y in zip(vals_a, vals_a[1:]))
        vals_b = [sf.v_kappa(2.5, 0.5, b).value for b in (0, 0.5, 1, 2, 4)]
        assert all(x > y for x, y in zip(vals_b, vals_b[1:]))

    def test_exponential_decay_in_b(self):
        # e^{-b^2 y - 1/y} <= e^{-2b} pointwise, so V(0, b) e^{2b} stays bounded
        bound = 3 * sf.v_kappa(2.5, 0, 0).value
        for b in range(1, 11):
            v = sf.v_kappa(2.5, 0.0, float(b)).value
            assert v * math.exp(2 * b) < bound * (1 + b)

    def test_domain_guard(self):
        with pytest.raises(PreconditionError):
            sf.v_kappa(1.0, 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_rejected(bad):
    for args in ((bad, 1.0, 1.0), (2.0, bad, 1.0), (2.0, 1.0, bad)):
        with pytest.raises(PreconditionError, match="finite"):
            sf.v_kappa(*args)
    for args in ((bad, 1.0), (1.5, bad)):
        with pytest.raises(PreconditionError, match="finite"):
            sf.inc_gamma_upper(*args)


def test_gamma_overflow_rejected():
    # Gamma(s) overflows a float above s = 171.62...
    assert math.isfinite(sf.inc_gamma_upper(171.0, 200.0))
    for args in ((172.0, 0.0), (172.0, 1.0), (172.0, 500.0), (1e300, 1.0)):
        with pytest.raises(PreconditionError, match="finite"):
            sf.inc_gamma_upper(*args)
    for kappa in (173.0, 1e300, 172.5):
        with pytest.raises(PreconditionError, match="finite"):
            sf.v_kappa(kappa, 1.0, 1.0)
