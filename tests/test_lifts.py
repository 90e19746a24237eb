import random
from fractions import Fraction as F

import pytest

from discforms import fqm, lifts
from discforms.errors import PreconditionError
from helpers import eta_quotient_reference, vector_lift_reference


def _pentagonal_euler(n_terms):
    """Euler product Prod(1 - q^n) via the pentagonal number expansion."""
    poly = [0] * (n_terms + 1)
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= n_terms:
                poly[e] += -1 if kk % 2 else 1
                hit = True
        if not hit:
            break
        k += 1
    return poly


def _poly_mul(a, b, n_terms):
    out = [0] * (n_terms + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j > n_terms:
                    break
                out[i + j] += x * y
    return out


def _poly_inv(a, n_terms):
    assert a[0] == 1
    out = [0] * (n_terms + 1)
    out[0] = 1
    for i in range(1, n_terms + 1):
        out[i] = -sum(a[j] * out[i - j] for j in range(1, i + 1) if j < len(a))
    return out


def brute_eta_quotient(exps, n_terms):
    """Independent oracle: pentagonal-number series and naive convolutions."""
    poly = [0] * (n_terms + 1)
    poly[0] = 1
    for d, r in exps.items():
        base = _pentagonal_euler(n_terms // d)
        stretched = [0] * (n_terms + 1)
        for i, c in enumerate(base):
            stretched[d * i] = c
        factor = stretched if r > 0 else _poly_inv(stretched, n_terms)
        for _ in range(abs(r)):
            poly = _poly_mul(poly, factor, n_terms)
    return poly


class TestEta:
    def test_discriminant_form_coefficients(self):
        d = lifts.eta_quotient({1: 24}, 8)
        # leading coefficient 1 at q^1; the next few tau values
        assert d.get(1) == 1
        assert [d.get(i) for i in range(2, 7)] == [-24, 252, -1472, 4830, -6048]

    def test_level_11_form_first_coefficients(self):
        g = lifts.eta_quotient({1: 2, 11: 2}, 20)
        assert [g.get(i) for i in range(1, 10)] == [1, -2, -1, 2, 1, 2, -2, 0, -2]

    def test_against_brute_force_oracle(self):
        for exps in ({1: 2, 11: 2}, {1: 4, 2: -2}, {2: 3, 6: 1}):
            prefix = sum(d * r for d, r in exps.items())
            if prefix % 24:
                continue
            series = lifts.eta_quotient(exps, 20)
            oracle = brute_eta_quotient(exps, 18)
            shift = prefix // 24
            for j, c in enumerate(oracle):
                assert series.get(shift + j) == c

    def test_fractional_prefix_tracked(self):
        eta = lifts.eta_qexp(F(73, 24))
        assert eta.get(F(1, 24)) == 1
        assert eta.get(F(25, 24)) == -1
        assert eta.get(F(49, 24)) == -1
        assert eta.get(F(73, 24)) == 0

    def test_truncation_contract(self):
        g = lifts.eta_quotient({1: 2, 11: 2}, 50)
        assert all(l <= 50 for l in g.coefficients)

    def test_truncation_below_the_leading_exponent_refused(self):
        # eta = q^{1/24} + ...: a truncation in [0, 1/24) holds no term
        for truncation in (0, F(1, 48), -1):
            with pytest.raises(PreconditionError, match="below the leading exponent"):
                lifts.eta_quotient({1: 1}, truncation)
        assert lifts.eta_quotient({1: 1}, F(1, 24)).coefficients == {F(1, 24): 1}

    @pytest.mark.parametrize("seed", range(4))
    def test_pentagonal_kernel_against_factor_loop_and_brute_force(self, seed):
        rng = random.Random(4200 + seed)
        for _ in range(50):
            exps = {rng.randint(1, 12): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))}
            n_terms = rng.randint(0, 300)
            prefix = sum(F(d * r, 24) for d, r in exps.items())
            truncation = prefix + n_terms + F(rng.randint(0, 23), 24)
            series = lifts.eta_quotient(exps, truncation)
            assert series.coefficients == eta_quotient_reference(exps, truncation), exps
            assert (series.weight, series.level) == (F(sum(exps.values()), 2), max(exps))
            brute = brute_eta_quotient(exps, n_terms)
            assert [series.get(prefix + j) for j in range(n_terms + 1)] == brute, exps

    def test_term_bound_refused_before_allocation(self, monkeypatch):
        monkeypatch.setattr(lifts, "TERM_BOUND", 50)
        at_bound = 50 + F(1, 24)
        assert (lifts.eta_quotient({1: 1}, at_bound).coefficients
                == eta_quotient_reference({1: 1}, at_bound))
        with pytest.raises(PreconditionError, match="51 eta quotient terms exceed the bound 50"):
            lifts.eta_quotient({1: 1}, at_bound + 1)
        monkeypatch.undo()
        with pytest.raises(PreconditionError, match="exceed the bound"):
            lifts.eta_quotient({1: 2, 11: 2}, 11 * 10 ** 12)


class TestUp:
    def test_constant(self):
        f = lifts.ScalarQSeries(0, 1, 10)
        f.set(0, 5)
        out = lifts.u_p(f, 7)
        assert out.get(0) == 5 and len(out.coefficients) == 1

    def test_eta_level_11(self):
        g = lifts.eta_quotient({1: 2, 11: 2}, 40)
        u = lifts.u_p(g, 11)
        assert u.get(1) == g.get(11) == 1
        assert u.get(2) == g.get(22)

    def test_kills_non_multiples(self):
        f = lifts.ScalarQSeries(2, 3, 10)
        for l in range(1, 10):
            f.set(l, l)
        out = lifts.u_p(f, 3)
        assert sorted(out.coefficients) == [1, 2, 3]
        assert out.get(1) == 3 and out.get(2) == 6


class TestNewformData:
    def test_level_11_eigenform(self):
        g = lifts.eta_quotient({1: 2, 11: 2}, 220)
        nf = lifts.NewformData(g, -1, 2, 11)
        assert nf.eps == -1
        # a(11 l) = a(l) for this form, on all stored indices
        for l in range(21):
            assert g.get(11 * l) == g.get(l)

    def test_wrong_eigenvalue_rejected(self):
        g = lifts.eta_quotient({1: 2, 11: 2}, 220)
        with pytest.raises(PreconditionError):
            lifts.NewformData(g, 1, 2, 11)

    def test_zero_rejected(self):
        z = lifts.ScalarQSeries(2, 11, 10)
        with pytest.raises(PreconditionError):
            lifts.NewformData(z, -1, 2, 11)

    def test_perturbed_rejected(self):
        g = lifts.eta_quotient({1: 2, 11: 2}, 220)
        g.set(22, g.get(22) + 1)
        with pytest.raises(PreconditionError):
            lifts.NewformData(g, -1, 2, 11)


class TestVectorLift:
    def setup_method(self):
        self.p = 3
        self.module = lifts.lift_module(3, 2)
        assert self.module.order() == 81

    def _series(self, seed, trunc=9):
        rng = random.Random(seed)
        out = lifts.ScalarQSeries(2, self.p, trunc)
        for l in range(trunc + 1):
            out.set(l, rng.randint(-5, 5))
        return out

    def test_zero_inputs(self):
        z = lifts.ScalarQSeries(2, 3, 9)
        vec = lifts.vector_lift_closed(z, z, self.module, 2, 3, 2)
        assert vec.is_zero()

    def test_coefficient_formula(self):
        a = self._series(1)
        at = self._series(2)
        vec = lifts.vector_lift_closed(a, at, self.module, 2, 3, 2, truncation=3)
        scale = F(1, 9)
        for mu in self.module.elements():
            m = mu.q()
            while m <= 3:
                want = scale * at.get(3 * m)
                if mu.is_zero():
                    want += a.get(m)
                assert vec.get(mu, m) == want
                m += 1

    def test_zero_class_degenerates(self):
        a = self._series(3)
        at = lifts.ScalarQSeries(2, 3, 9)  # zero transformed input
        vec = lifts.vector_lift_closed(a, at, self.module, 2, 3, 2, truncation=3)
        z = self.module.zero()
        for m in range(4):
            assert vec.get(z, m) == a.get(m)
        mu = self.module.element((1, 0, 0, 0))
        assert not vec.component(mu)

    def test_aut_invariance(self):
        a = self._series(4)
        at = self._series(5)
        vec = lifts.vector_lift_closed(a, at, self.module, 2, 3, 2, truncation=3)
        auts = [fqm.negation_automorphism(self.module),
                fqm.phi_r(self.module, 2, pair=(0, 1)),
                fqm.phi_r(self.module, 2, pair=(2, 3))]
        # swap of the two hyperbolic blocks
        swap = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        auts.append(fqm.Automorphism(self.module, swap))
        for h in auts:
            for (c, m), v in vec.items():
                img = h(self.module.element(c))
                assert vec.get(img, m) == v

    def test_linearity(self):
        a1, a2 = self._series(6), self._series(7)
        t1, t2 = self._series(8), self._series(9)
        v1 = lifts.vector_lift_closed(a1, t1, self.module, 2, 3, 2, truncation=2)
        v2 = lifts.vector_lift_closed(a2, t2, self.module, 2, 3, 2, truncation=2)
        a_sum = lifts.ScalarQSeries(2, 3, 9)
        t_sum = lifts.ScalarQSeries(2, 3, 9)
        for l in range(10):
            a_sum.set(l, a1.get(l) + a2.get(l))
            t_sum.set(l, t1.get(l) + t2.get(l))
        v_sum = lifts.vector_lift_closed(a_sum, t_sum, self.module, 2, 3, 2, truncation=2)
        assert v_sum == v1 + v2

    def test_truncation_above_the_input_refused(self):
        a, at = self._series(10), self._series(11)
        # a_tilde up to 9 fixes the lift up to 9/3 = 3
        assert lifts.vector_lift_closed(a, at, self.module, 2, 3, 2).truncation == 3
        with pytest.raises(PreconditionError, match="exceeds 3"):
            lifts.vector_lift_closed(a, at, self.module, 2, 3, 2, truncation=F(10, 3))

    def test_signature_guard(self):
        bad = fqm.hyperbolic_module(3)  # rank 2, not n + 2 = 4
        with pytest.raises(PreconditionError):
            lifts.vector_lift_closed(self._series(1), self._series(2), bad, 2, 3, 2)


class TestKernelElement:
    def test_level_11_construction(self):
        g = lifts.eta_quotient({1: 2, 11: 2}, 1100)
        nf = lifts.NewformData(g, -1, 2, 11)
        vec, report = lifts.kernel_element(nf, 2, 2, truncation=F(1))
        assert report["condition"] and report["first_violation"] is None
        assert report["nonzero_witness"] is not None
        z = vec.module.zero()
        assert vec.get(z, 1) == 1 - F(1, 121)

    def test_truncation_above_qbound_refused(self):
        # qbound 20: the input is known up to q^220, its level-involution image to 20
        g = lifts.eta_quotient({1: 2, 11: 2}, 220)
        nf = lifts.NewformData(g, -1, 2, 11)
        assert lifts.kernel_element(nf, 2, 2, truncation=20)[0].truncation == 20
        with pytest.raises(PreconditionError, match="truncation 30 exceeds 20"):
            lifts.kernel_element(nf, 2, 2, truncation=30)

    def test_wrong_weight_rejected(self):
        g = lifts.eta_quotient({1: 2, 11: 2}, 110)
        nf = lifts.NewformData(g, -1, 2, 11)
        with pytest.raises(PreconditionError):
            lifts.kernel_element(nf, 10, 6)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 10)])
def test_lift_matches_the_element_loop(p, n):
    module = lifts.lift_module(p, n)
    rng = random.Random(100 * p + n)
    trunc = 4 * p
    a = lifts.ScalarQSeries(2, p, trunc)
    at = lifts.ScalarQSeries(2, p, trunc)
    for l in range(trunc + 1):
        a.set(l, rng.randint(-5, 5))
        at.set(l, rng.choice([0, rng.randint(-5, 5)]))
    for truncation in (None, F(1, p), F(5, 2)):
        vec = lifts.vector_lift_closed(a, at, module, 2, p, n, truncation=truncation)
        ref = vector_lift_reference(a, at, module, 2, p, n, vec.truncation)
        assert vec == ref
        # the same component dicts, inserted in the same order
        assert list(vec.components.items()) == list(ref.components.items())
