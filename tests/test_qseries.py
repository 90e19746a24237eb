import random
import re
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from discforms import fqm, lifts, qseries as qs
from discforms.cyclo import CyclotomicNumber, e_frac
from discforms.errors import PreconditionError
from helpers import (FlatQSeriesReference, block, fibers_reference, flat_down_arrow_reference,
                     flat_pairing_at_reference, flat_read_series_reference,
                     flat_up_arrow_reference, flat_write_series_reference, newpart_series,
                     profile_module, random_isotropic_subgroup, random_module, random_series,
                     un)

# The module profiles of the newform_roundtrip benchmark (NEWFORM_SLOTS).
NEWFORM_PROFILES = (
    (("h", 2), ("c", 3)), (("h", 2), ("c", 4)), (("h", 2), ("h", 2)),
    (("h", 3), ("c", 2)), (("h", 2), ("c", 5)), (("h", 2), ("c", 2), ("c", 3)),
    (("h", 3), ("c", 3)), (("h", 4), ("c", 2)), (("h", 2), ("h", 3)),
    (("h", 4), ("c", 3)),
)


def u_with_line(n):
    a = fqm.hyperbolic_module(n)
    e = a.element((0, 1))
    return a, e


def test_support_congruence_enforced():
    a = fqm.hyperbolic_module(3)
    f = qs.VectorValuedQSeries(a, F(3), F(2))
    mu = a.element((1, 1))  # Q = 1/3
    f.set(mu, F(4, 3), 5)
    with pytest.raises(PreconditionError):
        f.set(mu, F(1, 2), 1)
    with pytest.raises(PreconditionError):
        f.set(mu, F(10, 3), 1)  # beyond truncation


def test_trivial_subgroup_arrows_are_identity():
    a = fqm.hyperbolic_module(4)
    h = fqm.Subgroup(a, [a.zero()])
    f = random_series(a, F(3), F(2), random.Random(0))
    assert qs.up_arrow(f, a, h) == f
    assert qs.down_arrow(f, h) == f


def test_up_support_and_down_up():
    rng = random.Random(21)
    for _ in range(10):
        a = random_module(rng, max_order=40)
        h = random_isotropic_subgroup(rng, a)
        if h.order == 1:
            continue
        b, proj, sect, _fib = qs.reduction(a, h)
        g = random_series(b, F(3), F(2), rng)
        up = qs.up_arrow(g, a, h)
        perp = fqm.orthogonal_complement(a, h)
        assert qs.is_supported_on(up, perp)
        assert qs.down_arrow(up, h) == g * h.order


def _fiber_cases():
    """(module, subgroups): the modules of test_fqm.py and this file, the
    NEWFORM_PROFILES and random modules, each with its trivial subgroup and
    every isotropic subgroup of order d with d^2 dividing |A| (the cyclic ones
    along (0,1) for H(30))."""
    rng = random.Random(3)
    mods = [fqm.hyperbolic_module(n) for n in (2, 3, 4, 5, 6, 7, 9, 12)]
    mods += [fqm.trivial_module(), fqm.cyclic_module(2, F(1, 4)), fqm.fqm_from_gram([[2]]),
             fqm.fqm_from_gram(block([[4]], un(3), un(1))), fqm.matrix_model_module(3),
             fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(9)),
             fqm.direct_sum(fqm.hyperbolic_module(5), fqm.fqm_from_gram([[4]]))]
    mods += [profile_module(p) for p in NEWFORM_PROFILES]
    mods += [random_module(rng, max_order=60) for _ in range(8)]
    for a in mods:
        subs = [fqm.Subgroup(a, [a.zero()])]
        for d in range(2, a.order() + 1):
            if a.order() % (d * d) == 0:
                subs += fqm.isotropic_subgroups(a, d)
        yield a, subs
    a, e = u_with_line(30)
    yield a, [fqm.cyclic_subgroup_id(a, e, d) for d in (1, 2, 3, 5, 6, 10, 15, 30)]


def test_reduction_fibers_are_the_cosets_of_the_reference():
    # and on every isotropic subgroup of H(30) of order 2 to 30, not only the cyclic I_d
    a30 = fqm.hyperbolic_module(30)
    h30 = [h for n in range(2, 31) if 900 % n == 0 for h in fqm.isotropic_subgroups(a30, n)]
    assert len(h30) == 26
    count = 0
    for a, subs in [*_fiber_cases(), (a30, h30)]:
        for h in subs:
            assert qs.reduction(a, h)[3] == fibers_reference(a, h), (a.orders, h)
            count += 1
    assert count > 100


def test_cached_reduction_needs_no_orthogonal_complement(monkeypatch):
    rng = random.Random(5)
    a, e = u_with_line(6)
    subs = {d: fqm.cyclic_subgroup_id(a, e, d) for d in (2, 3, 6)}
    f = None
    for d, h in subs.items():
        b, proj, _sect, _fib = qs.reduction(a, h)
        g = newpart_series(b, proj(e), F(3), F(2), rng) if d != 6 \
            else random_series(b, F(3), F(2), rng)
        piece = qs.up_arrow(g, a, h)
        f = piece if f is None else f + piece

    def refuse(*args):
        raise AssertionError("orthogonal_complement called")

    monkeypatch.setattr(fqm, "orthogonal_complement", refuse)
    h = subs[3]
    up = qs.up_arrow(qs.down_arrow(f, h), a, h)
    assert qs.reconstruct_from_descent(up, h)[1]["reconstructed"]
    terms = qs.decompose_prime_union(up, [subs[2], subs[3]])
    assert sum((t * sign for _i, sign, t in terms[1:]), terms[0][2]) == up
    assert qs.resum_decomposition(qs.oldform_decompose(f, e, 1), a, e) == f
    # a trivial subgroup needs neither the cache nor the complement
    monkeypatch.setattr(qs, "_REDUCTIONS", {})
    c = fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(3))
    b, _proj, _sect, fibers = qs.reduction(c, fqm.Subgroup(c, [c.zero()]))
    assert b == c and fibers == {x.coords: [x.coords] for x in c.elements()}


def test_non_isotropic_subgroup_rejected_on_newform_path():
    a = fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(3))
    h = fqm.Subgroup.from_generators(a, [a.element((1, 0, 0))])
    f = random_series(a, F(3), F(2), random.Random(6))
    for call in (lambda: qs.up_arrow(f, a, h), lambda: qs.down_arrow(f, h),
                 lambda: qs.reconstruct_from_descent(f, h),
                 lambda: qs.decompose_prime_union(f, [h])):
        with pytest.raises(PreconditionError, match="not isotropic"):
            call()


def test_down_arrow_checks_every_sum_it_sets():
    # two coefficients of one fiber, stored past the truncation, that cancel
    a, e = u_with_line(4)
    h = fqm.cyclic_subgroup_id(a, e, 2)
    mu, nu = qs.reduction(a, h)[3][(1, 0)]
    f = qs.VectorValuedQSeries(a, F(3), F(2))
    f.components[mu] = {3 * f.level: F(1)}
    f.components[nu] = {3 * f.level: F(-1)}
    with pytest.raises(PreconditionError, match="truncation"):
        qs.down_arrow(f, h)


def test_adjointness_per_level():
    rng = random.Random(34)
    a, e = u_with_line(6)
    h = fqm.cyclic_subgroup_id(a, e, 2)
    b, *_ = qs.reduction(a, h)
    f = random_series(a, F(3), F(2), rng)
    g = random_series(b, F(3), F(2), rng)
    up_g = qs.up_arrow(g, a, h)
    down_f = qs.down_arrow(f, h)
    for m in (F(0), F(1, 2), F(1), F(3, 2), F(2), F(1, 6)):
        assert qs.pairing_at(up_g, f, m) == qs.pairing_at(g, down_f, m)


def test_adjointness_with_cyclotomic_values():
    a, e = u_with_line(4)
    h = fqm.cyclic_subgroup_id(a, e, 2)
    b, *_ = qs.reduction(a, h)
    f = qs.VectorValuedQSeries(a, F(2), F(1))
    g = qs.VectorValuedQSeries(b, F(2), F(1))
    f.set(a.zero(), 0, e_frac(F(1, 8)))
    f.set(a.element((2, 2)), 0, e_frac(F(3, 8)) * F(2, 5))
    g.set(b.zero(), 0, e_frac(F(5, 8)))
    assert qs.pairing_at(qs.up_arrow(g, a, h), f, F(0)) == \
        qs.pairing_at(g, qs.down_arrow(f, h), F(0))


def test_linearity_of_arrows():
    rng = random.Random(55)
    a, e = u_with_line(9)
    h = fqm.cyclic_subgroup_id(a, e, 3)
    b, *_ = qs.reduction(a, h)
    g1 = random_series(b, F(3), F(2), rng)
    g2 = random_series(b, F(3), F(2), rng)
    assert qs.up_arrow(g1 + g2, a, h) == qs.up_arrow(g1, a, h) + qs.up_arrow(g2, a, h)
    assert qs.up_arrow(g1 * F(7, 3), a, h) == qs.up_arrow(g1, a, h) * F(7, 3)
    f = random_series(a, F(3), F(2), rng)
    assert qs.down_arrow(f * F(-2), h) == qs.down_arrow(f, h) * F(-2)


class TestDescentReconstruction:
    def test_arrow_image_reconstructs(self):
        rng = random.Random(70)
        a, e = u_with_line(6)
        h = fqm.cyclic_subgroup_id(a, e, 3)
        b, *_ = qs.reduction(a, h)
        f = qs.up_arrow(random_series(b, F(3), F(2), rng), a, h)
        rec, report = qs.reconstruct_from_descent(f, h)
        assert report == {"supported_on_perp": True, "translation_invariant": True,
                          "reconstructed": True}
        assert rec == f

    def test_broken_invariance_flagged(self):
        rng = random.Random(71)
        a, e = u_with_line(6)
        h = fqm.cyclic_subgroup_id(a, e, 3)
        b, *_ = qs.reduction(a, h)
        f = qs.up_arrow(random_series(b, F(3), F(2), rng, density=0.9), a, h)
        mu = fqm.orthogonal_complement(a, h).elements[1]
        f.set(mu, mu.q(), f.get(mu, mu.q()) + 1)
        rec, report = qs.reconstruct_from_descent(f, h)
        assert rec is None and not report["translation_invariant"]

    def test_unsupported_flagged(self):
        a, e = u_with_line(6)
        h = fqm.cyclic_subgroup_id(a, e, 3)
        f = qs.VectorValuedQSeries(a, F(3), F(2))
        mu = a.element((1, 1))  # (mu, (0,2)) = 1/3, so mu is off H^perp
        f.set(mu, mu.q(), 3)
        rec, report = qs.reconstruct_from_descent(f, h)
        assert rec is None and not report["supported_on_perp"]

    def test_random_supported_invariant_input(self):
        # build support + invariance by averaging translates of a random series
        rng = random.Random(72)
        a, e = u_with_line(4)
        h = fqm.cyclic_subgroup_id(a, e, 2)
        perp = fqm.orthogonal_complement(a, h)
        f = qs.VectorValuedQSeries(a, F(3), F(2))
        raw = random_series(a, F(3), F(2), rng)
        for mu in perp.elements:
            comp = {}
            for hp in h.elements:
                for m, v in raw.component(mu + hp).items():
                    comp[m] = comp.get(m, 0) + v
            for m, v in comp.items():
                f.set(mu, m, v)
        rec, report = qs.reconstruct_from_descent(f, h)
        assert report["reconstructed"] and rec == f


class TestPrimeUnionDecomposition:
    def test_single_subgroup_reconstructs(self):
        rng = random.Random(80)
        a, e = u_with_line(5)
        h = fqm.cyclic_subgroup_id(a, e, 5)
        b, *_ = qs.reduction(a, h)
        f = qs.up_arrow(random_series(b, F(3), F(2), rng), a, h)
        terms = qs.decompose_prime_union(f, [h])
        assert len(terms) == 1
        idx, sign, term = terms[0]
        assert idx == (0,) and sign == 1
        assert term == f

    @pytest.mark.parametrize("n,primes", [(6, (2, 3)), (30, (2, 3, 5))])
    def test_synthetic_multi_prime(self, n, primes):
        rng = random.Random(81 + n)
        a, e = u_with_line(n)
        subs = [fqm.cyclic_subgroup_id(a, e, p) for p in primes]
        f = None
        for h in subs:
            b, *_ = qs.reduction(a, h)
            piece = qs.up_arrow(random_series(b, F(3), F(2), rng), a, h)
            f = piece if f is None else f + piece
        terms = qs.decompose_prime_union(f, subs)
        assert len(terms) == 2 ** len(primes) - 1
        total = None
        for _idx, sign, term in terms:
            piece = term * sign
            total = piece if total is None else total + piece
        assert total == f

    def test_rejects_equal_primes(self):
        a, e = u_with_line(4)
        h = fqm.cyclic_subgroup_id(a, e, 2)
        f = qs.VectorValuedQSeries(a, F(3), F(2))
        with pytest.raises(PreconditionError):
            qs.decompose_prime_union(f, [h, h])

    def test_rejects_bad_support(self):
        a, e = u_with_line(6)
        h = fqm.cyclic_subgroup_id(a, e, 2)
        f = qs.VectorValuedQSeries(a, F(3), F(2))
        mu = a.element((1, 1))
        assert fqm.content(a, e, mu) == 1
        f.set(mu, mu.q(), 1)
        with pytest.raises(PreconditionError, match="not supported"):
            qs.decompose_prime_union(f, [h])


def test_indicator_inclusion_exclusion():
    # the set-theoretic identity behind the decomposition
    rng = random.Random(90)
    universe = list(range(40))
    sets = [set(rng.sample(universe, rng.randint(5, 20))) for _ in range(3)]
    union = sets[0] | sets[1] | sets[2]
    for x in universe:
        direct = 1 if x in union else 0
        total = 0
        for mask in range(1, 8):
            chosen = [sets[i] for i in range(3) if mask >> i & 1]
            inter = set.intersection(*chosen)
            total += (-1) ** (len(chosen) + 1) * (1 if x in inter else 0)
        assert direct == total


class TestOldforms:
    def test_is_oldform(self):
        rng = random.Random(60)
        a, e = u_with_line(6)
        h = fqm.cyclic_subgroup_id(a, e, 2)
        b, *_ = qs.reduction(a, h)
        f = qs.up_arrow(random_series(b, F(3), F(2), rng, density=0.9), a, h)
        assert qs.is_oldform(f, e)
        mu = a.element((1, 0))
        assert fqm.content(a, e, mu) == 1
        f.set(mu, mu.q(), 1)
        assert not qs.is_oldform(f, e)

    def test_moebius_identity_on_synthetic_oldforms(self):
        rng = random.Random(61)
        for n in (6, 12):
            a, e = u_with_line(n)
            f = None
            for d in range(2, n + 1):
                if n % d:
                    continue
                i_d = fqm.cyclic_subgroup_id(a, e, d)
                b, *_ = qs.reduction(a, i_d)
                piece = qs.up_arrow(random_series(b, F(3), F(2), rng), a, i_d)
                f = piece if f is None else f + piece
            assert qs.is_oldform(f, e)
            assert qs.moebius_resum(f, e) == f

    def test_t0_is_trivial(self):
        rng = random.Random(62)
        a, e = u_with_line(6)
        f = random_series(a, F(3), F(2), rng)
        dec = qs.oldform_decompose(f, e, 0)
        assert list(dec) == [1] and dec[1] == f

    @pytest.mark.parametrize("n", [12, 30])
    @pytest.mark.parametrize("t", [1, 2])
    def test_filtration_roundtrip(self, n, t):
        rng = random.Random(1000 * n + t)
        a, e = u_with_line(n)
        parts_in = {}
        f = None
        for d in range(2, n + 1):
            if n % d or qs._omega(d) < t:
                continue
            i_d = fqm.cyclic_subgroup_id(a, e, d)
            b, proj, _s, _fib = qs.reduction(a, i_d)
            g = newpart_series(b, proj(e), F(3), F(2), rng) if d != n \
                else random_series(b, F(3), F(2), rng)
            parts_in[d] = g
            piece = qs.up_arrow(g, a, i_d)
            f = piece if f is None else f + piece
        dec = qs.oldform_decompose(f, e, t)
        assert qs.resum_decomposition(dec, a, e) == f
        for d, g in parts_in.items():
            assert dec[d] == g

    def test_support_violation_raises(self):
        a, e = u_with_line(6)
        f = qs.VectorValuedQSeries(a, F(3), F(2))
        mu = a.element((1, 0))
        f.set(mu, mu.q(), 2)
        with pytest.raises(PreconditionError):
            qs.oldform_decompose(f, e, 1)

    def test_invariance_violation_raises(self):
        rng = random.Random(63)
        a, e = u_with_line(12)
        f = None
        for d in (2, 3, 4, 6, 12):
            i_d = fqm.cyclic_subgroup_id(a, e, d)
            b, *_ = qs.reduction(a, i_d)
            piece = qs.up_arrow(random_series(b, F(3), F(2), rng), a, i_d)
            f = piece if f is None else f + piece
        with pytest.raises(PreconditionError):
            qs.oldform_decompose(f, e, 1)

    def test_invariance_checked_on_every_fiber(self):
        # a valid depth-1 input, broken on one element of the last new fiber
        rng = random.Random(64)
        a, e = u_with_line(12)
        f = None
        for d in (2, 3, 4, 6, 12):
            i_d = fqm.cyclic_subgroup_id(a, e, d)
            b, proj, _sect, _fib = qs.reduction(a, i_d)
            g = newpart_series(b, proj(e), F(3), F(2), rng) if d != 12 \
                else random_series(b, F(3), F(2), rng)
            piece = qs.up_arrow(g, a, i_d)
            f = piece if f is None else f + piece
        b, proj, _sect, fibers = qs.reduction(a, fqm.cyclic_subgroup_id(a, e, 2))
        last = [mus for c, mus in fibers.items() if fqm.content(b, proj(e), b.element(c)) == 1][-1]
        mu = a.element(last[1])
        f.set(mu, mu.q(), f.get(mu, mu.q()) + 1)
        with pytest.raises(PreconditionError, match="invariance fails at depth 1"):
            qs.oldform_decompose(f, e, 1)


def test_truncation_minimum_on_addition():
    a = fqm.hyperbolic_module(2)
    f = qs.VectorValuedQSeries(a, F(3), F(5))
    g = qs.VectorValuedQSeries(a, F(3), F(2))
    f.set(a.zero(), 4, 1)
    out = f + g
    assert out.truncation == F(2)
    assert out.get(a.zero(), 4) == 0


def test_weight_and_truncation_are_fractions():
    # a Fraction is kept as passed, through copies and arrows; anything else is wrapped
    a = fqm.hyperbolic_module(2)
    w, t = F(5, 2), F(3)
    f = qs.VectorValuedQSeries(a, w, t)
    assert f.weight is w and f.truncation is t
    assert f.copy().weight is w and (f * 3).truncation is t
    h = qs.up_arrow(f, a, fqm.Subgroup(a, [a.zero()]))
    assert h.weight is w and h.truncation is t
    g = qs.VectorValuedQSeries(a, 2, "7/2")
    assert type(g.weight) is F and type(g.truncation) is F
    assert (g.weight, g.truncation, g.k_max) == (2, F(7, 2), 7)


def test_series_file_roundtrip(tmp_path):
    a = fqm.hyperbolic_module(3)
    f = qs.VectorValuedQSeries(a, F(5, 2), F(3))
    f.set(a.element((1, 1)), F(1, 3), F(-7, 2))
    f.set(a.zero(), 2, 4)
    f.set(a.element((1, 2)), F(2, 3), e_frac(F(1, 8)) * F(2) + F(1, 3))
    text = qs.write_series(f)
    back = qs.read_series(text, a)
    assert back == f
    assert back.weight == f.weight and back.truncation == f.truncation
    with pytest.raises(PreconditionError):
        qs.read_series(text, fqm.hyperbolic_module(4))


# -- the component store against the flat-dict oracle -----------------------------


def _oracle_cases():
    """The fiber cases, plus every module the other tests of this file build
    outside them, each with its trivial and all its isotropic subgroups."""
    yield from _fiber_cases()
    extra = [fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(3))]
    rng = random.Random(21)  # replays the draws of test_up_support_and_down_up
    for _ in range(10):
        a = random_module(rng, max_order=40)
        h = random_isotropic_subgroup(rng, a)
        if h.order > 1:
            random_series(qs.reduction(a, h)[0], F(3), F(2), rng)
        extra.append(a)
    for a in extra:
        subs = [fqm.Subgroup(a, [a.zero()])]
        for d in range(2, a.order() + 1):
            if a.order() % (d * d) == 0:
                subs += fqm.isotropic_subgroups(a, d)
        yield a, subs


def _oracle_value(rng):
    """A random rational or cyclotomic value; zero, and cyclotomic zeros, included."""
    kind = rng.randrange(4)
    if kind == 0:
        return CyclotomicNumber(4, {0: F(1), 2: F(1)})  # 1 + i^2 = 0
    if kind == 1:
        return CyclotomicNumber(rng.choice((3, 4, 8)),
                                {rng.randrange(8): F(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(2)})
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def _oracle_exponent(rng, module, mu):
    """Congruent exponents below and past the truncation, non-congruent ones,
    and exponents outside (1/N)Z."""
    n = module.level()
    kind = rng.randrange(6)
    if kind == 4 and n > 1:
        return mu.q() + F(rng.randrange(1, n), n)
    if kind == 5:
        return mu.q() + F(1, 2 * n + 1)
    return mu.q() + rng.randint(-1, 3)


def _same_call(fast, ref):
    """Run both calls: both refuse with one message (None), or both return (got, want)."""
    try:
        want = ref()
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match="^%s$" % re.escape(str(exc))):
            fast()
        return None
    return fast(), want


def _agree(f, r):
    assert f.module == r.module and f.truncation == r.truncation
    assert dict(f.items()) == r.coefficients
    assert f.nonzero_count() == len(r.coefficients)
    assert f.support() == r.support() and f.is_zero() == r.is_zero()
    assert all(f.components.values())  # no empty component is stored
    assert qs.write_series(f) == flat_write_series_reference(r)


def _oracle_pair(module, rng, truncation):
    f = qs.VectorValuedQSeries(module, F(3), truncation)
    r = FlatQSeriesReference(module, F(3), truncation)
    density = min(0.4, 60 / module.order())
    for mu in module.elements():
        m = mu.q()
        while m <= truncation:
            if rng.random() < density:
                v = _oracle_value(rng)
                f.set(mu, m, v)
                r.set(mu, m, v)
            m += 1
    return f, r


# Rational texts that int() alone does not read, or reads to a non-reduced pair
NON_CANONICAL = ("2/4", "+1", " 3", "1e2", "0/5", "-0", "1_0")


def _oracle_round(a, h, rng):
    b = qs.reduction(a, h)[0]
    pools = {}
    for mod in (a, b):
        pools[mod] = [_oracle_pair(mod, rng, rng.choice((F(2), F(3, 2), F(5, 2))))
                      for _ in range(2)]
    for _ in range(14):
        mod = rng.choice((a, b))
        pool = pools[mod]
        (f, r), (g, s) = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(9)
        if op == 0:
            for _ in range(4):
                mu = rng.choice(mod.elements())
                m, v = _oracle_exponent(rng, mod, mu), _oracle_value(rng)
                _same_call(lambda: f.set(mu, m, v), lambda: r.set(mu, m, v))
                assert f.get(mu, m) == r.get(mu, m)
                assert f.component(mu) == r.component(mu)
        elif op == 1:
            pool.append((f + g, r + s))
        elif op == 2:
            pool.append((f - g, r - s))
        elif op == 3:
            c = rng.choice((0, 1, -1, F(2, 3), CyclotomicNumber(4, {1: F(1)})))
            pool.append((f * c, r * c))
        elif op == 4:
            assert (f == g) == (r == s) and (f == f * 1) and (r == r * 1)
        elif op == 5:
            up, ref_up = rng.choice(pools[b])
            pools[a].append((qs.up_arrow(up, a, h), flat_up_arrow_reference(ref_up, a, h)))
        elif op == 6:
            down, ref_down = rng.choice(pools[a])
            pools[b].append((qs.down_arrow(down, h), flat_down_arrow_reference(ref_down, h)))
        elif op == 7:
            n = mod.level()
            for m in (F(0), F(1), F(rng.randrange(3 * n), n), F(1, 2 * n + 1), F(-1, n)):
                assert qs.pairing_at(f, g, m) == flat_pairing_at_reference(r, s, m)
        else:
            f2, r2 = f.copy(), r.copy()
            mu = rng.choice(mod.elements())
            m = mu.q()
            f2.set(mu, m, F(7))
            r2.set(mu, m, F(7))
            pool.append((f2, r2))
    for pool in pools.values():
        for f, r in pool:
            _agree(f, r)
    # a shuffled file with repeated records, some of them zero, and one bad record
    lines = qs.write_series(rng.choice(pools[a])[0]).splitlines()
    head, records = lines[:3], lines[3:]
    mu = rng.choice(a.elements())
    m = mu.q() + rng.randint(0, 2)
    records += [rec.rsplit("=", 1)[0] + "=" + rng.choice(("0", "-2/3", "1 * z4^1")
                                                       + NON_CANONICAL)
                for rec in rng.sample(records, len(records) // 3)]
    records.append("mu=(%s) m=%s coeff=5" % (",".join(map(str, mu.coords)), m))
    rng.shuffle(records)
    text = "\n".join(head + records) + "\n"
    both = _same_call(lambda: qs.read_series(text, a), lambda: flat_read_series_reference(text, a))
    if both:
        _agree(*both)
    bad = "mu=(%s) m=%s coeff=1" % (",".join(map(str, mu.coords)), m + F(1, 2 * a.level() + 1))
    records.insert(rng.randrange(len(records) + 1), bad)
    text = "\n".join(head + records) + "\n"
    _same_call(lambda: qs.read_series(text, a), lambda: flat_read_series_reference(text, a))


def test_component_store_matches_flat_oracle():
    """Seeded random sequences through the component store and the flat-dict
    oracle: values agree one by one and the written files byte for byte."""
    rng = random.Random(808)
    count = 0
    for a, subs in _oracle_cases():
        for h in subs:
            _oracle_round(a, h, rng)
            count += 1
    assert count > 200


# A file on H(4), Q(x, y) = xy/4, whose mu, m and coeff texts repeat: (5,2) and
# (1,-2) spell (1,2), 2/4 spells 1/2, and 1 * z8^2 spells 1 * z4^1. The later
# record of a pair wins, zeros included.
REPEATED_FIELDS = """module: 4,4
weight: 3
truncation: 2
mu=(1,2) m=1/2 coeff=2/4
mu=(5,2) m=2/4 coeff=1/2
mu=(1,2) m=3/2 coeff=1 * z4^1 + 1/2
mu=(2,1) m=1/2 coeff=1 * z8^2 + 1/2
mu=(2,1) m=6/4 coeff=2/4
mu=(1,1) m=1/4 coeff=-3
mu=(1,1) m=5/4 coeff=-3
mu=(1,-2) m=3/2 coeff=0
mu=(0,0) m=1 coeff=1 * z4^1 + -1 * z4^1
mu=(0,0) m=2 coeff=2/4
mu=(2,1) m=1/2 coeff=1 * z4^1 + 1/2
"""


def test_read_series_with_repeated_fields_matches_the_oracle():
    a = fqm.hyperbolic_module(4)
    got, want = _same_call(lambda: qs.read_series(REPEATED_FIELDS, a),
                           lambda: flat_read_series_reference(REPEATED_FIELDS, a))
    _agree(got, want)
    mu, nu = a.element((1, 2)), a.element((2, 1))
    assert got.component(mu) == {F(1, 2): F(1, 2)}  # the zero at 3/2 overrode the value
    assert got.get(nu, F(1, 2)) == e_frac(F(1, 4)) + F(1, 2)
    assert got.support() == [(0, 0), (1, 1), (1, 2), (2, 1)]
    assert qs.read_series(qs.write_series(got), a) == got
    # lines are read stripped, and blank lines are skipped
    padded = "\n\n".join(" \t%s  " % ln for ln in REPEATED_FIELDS.splitlines())
    assert qs.read_series(padded, a) == got


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_read_series_of_non_canonical_field_texts_matches_the_oracle(text):
    """The text as an exponent on three mu, as a coefficient, and as the
    coefficient of a root of unity, in records with their fields in either
    order: read, or refused, as the oracle does. Fields are split at spaces,
    so an exponent's space is a tab."""
    a = fqm.hyperbolic_module(4)
    m_text = text.replace(" ", "\t")
    records = ["mu=(%s) m=%s coeff=5" % (mu, m_text) for mu in ("0,0", "1,2", "1,1")]
    records += ["mu=(0,0) m=1 coeff=%s" % text, "mu=(1,1) m=5/4 coeff=%s * z8^3 + 1" % text,
                "mu=(1,1) m=1/4 coeff=1 + %s * z4^1" % text]
    # fields in another order than write_series uses
    records += ["m=1 mu=(0,0) coeff=%s" % text, "coeff=7 mu=(0,0) m=%s" % m_text]
    for rec in records:
        for at in (3, None):
            lines = REPEATED_FIELDS.splitlines()
            lines.insert(len(lines) if at is None else at, rec)
            doc = "\n".join(lines) + "\n"
            both = _same_call(lambda: qs.read_series(doc, a),
                              lambda: flat_read_series_reference(doc, a))
            if both:
                _agree(*both)


def test_reading_an_integral_file_builds_no_fraction_per_record():
    """Only the header's weight and truncation become Fractions: exponent and
    coefficient texts are read as integer pairs, integral values as ints."""
    a = fqm.hyperbolic_module(6)
    f = qs.VectorValuedQSeries(a, F(3), F(3))
    rng = random.Random(33)
    for mu in a.elements():
        for j in range(3):
            f.set(mu, mu.q() + j, rng.randint(-9, 9))
    # integral coefficients spelt as fractions, exponents not in lowest terms
    text = qs.write_series(f) + "mu=(1,1) m=14/12 coeff=8/4\nmu=(0,0) m=2/1 coeff=-6/3\n"
    f.set(a.element((1, 1)), F(7, 6), 2)
    f.set(a.zero(), 2, -2)
    built = []
    new = F.__new__.__code__

    def count(frame, event, _arg):
        if event == "call" and frame.f_code is new:
            built.append(frame.f_back.f_code.co_name)

    sys.setprofile(count)
    try:
        got = qs.read_series(text, a)
    finally:
        sys.setprofile(None)
    assert got == f and got.nonzero_count() > 60
    assert built == ["parse_rational", "parse_rational"]


def _coordinate_entries(a):
    """The coordinate keys of a's series vocabulary."""
    return [key for key in a._vocabulary if type(key) is tuple]


def _elements_built(fn):
    """(fn(), the number of FqmElements built during the call)."""
    built = []
    init = fqm.FqmElement.__init__.__code__

    def count(frame, event, _arg):
        if event == "call" and frame.f_code is init:
            built.append(1)

    sys.setprofile(count)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, len(built)


def _seeded_file(a, rng):
    """A seeded series on a, rational on half the grid and cyclotomic on a fifth of that."""
    f = random_series(a, F(3), F(2), rng)
    for (coords, m), _v in list(f.items())[::5]:
        f.set(a.element(coords), m, CyclotomicNumber(rng.choice((3, 4, 8)), {
            rng.randrange(8): F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2)}))
    return f, qs.write_series(f)


def test_vocabulary_route_matches_the_flat_reader_on_seeded_files():
    """Seeded files on the benchmark profiles and on H(31), read as the flat
    reader reads them: on an equal module built afresh, whose vocabulary is
    cold, then on the writer's module and again on the fresh one, now warm.
    No read builds an element, and the three series write the same bytes."""
    rng = random.Random(3531)
    for a in [profile_module(p) for p in NEWFORM_PROFILES] + [fqm.hyperbolic_module(31)]:
        for _ in range(2):
            f, text = _seeded_file(a, rng)
            fresh = fqm.FiniteQuadraticModule(a.orders, a.q_values, a.bilinear)
            assert fresh == a and not fresh._vocabulary
            written = set()
            for b in (fresh, a, fresh):
                got, built = _elements_built(lambda: qs.read_series(text, b))
                want = flat_read_series_reference(text, b)
                _agree(got, want)
                assert got == f and built == 0
                written.add(qs.write_series(got))
            assert len(written) == 1
            assert len(_coordinate_entries(a)) <= a.order()


# Records on H(31), Q(x, y) = xy/31, that spell mu and m as write_series does
# not: (32,0) and (-30,31) spell (1,0), (1,32) and (32,-30) spell (1,1), 2/62
# and +1/31 spell 1/31, 0 and -0/5 spell 0/1. The records of one (mu, m) come
# in pairs; the later wins, zero included.
NON_CANONICAL_H31 = """module: 31,31
weight: 2
truncation: 2
mu=(32,0) m=0 coeff=3
mu=(-30,31) m=-0/5 coeff=4
mu=(1,0) m=1 coeff=5/2
mu=(1,1) m=1/31 coeff=6
mu=(1,32) m=2/62 coeff=0
mu=(32,-30) m=32/31 coeff=1 * z4^1
mu=(1,1) m=+32/31 coeff=7
mu=(0,0) m=0/1 coeff=0
m=1 coeff=2 mu=(-31,62)
"""


def test_non_canonical_spellings_read_to_the_canonical_entries():
    a = fqm.hyperbolic_module(31)
    for _ in range(2):  # a cold vocabulary, then a warm one
        got, want = _same_call(lambda: qs.read_series(NON_CANONICAL_H31, a),
                               lambda: flat_read_series_reference(NON_CANONICAL_H31, a))
        _agree(got, want)
        x, y = a.element((1, 0)), a.element((1, 1))
        assert got.component(x) == {0: 4, 1: F(5, 2)}
        assert got.component(y) == {F(32, 31): 7}  # 1/31 was set to zero by its second record
        assert got.component(a.zero()) == {1: 2} and got.nonzero_count() == 4
        assert qs.read_series(qs.write_series(got), a) == got
    vocab = a._vocabulary
    assert vocab["mu=(1,0)"] == ((1, 0), 0, "mu=(1,0)") and vocab["m=32/31"] == 32
    spelt = {key for key in vocab if type(key) is str}
    assert not spelt & {"mu=(32,0)", "mu=(-30,31)", "mu=(1,32)", "mu=(32,-30)", "mu=(-31,62)",
                        "m=0", "m=-0/5", "m=1", "m=2/62", "m=+32/31"}
    for key in spelt:  # each text as write_series spells it
        if key[:3] == "mu=":
            coords = vocab[key][0]
            assert key == "mu=(%s)" % ",".join(map(str, coords)) and vocab[coords] is vocab[key]
        else:
            m = F(key[2:])
            assert key == "m=%d/%d" % (m.numerator, m.denominator) and vocab[key] == 31 * m
    # on H(4), Q(x, y) = xy/4: 2/8 and +1/4 spell 1/4, and (5,1) spells (1,1)
    b = fqm.hyperbolic_module(4)
    text = "module: 4,4\nweight: 2\ntruncation: 1\n"
    text += "mu=(5,1) m=2/8 coeff=1\nmu=(1,1) m=+1/4 coeff=2\nmu=(1,-3) m=1/4 coeff=3\n"
    for _ in range(2):
        got, want = _same_call(lambda: qs.read_series(text, b),
                               lambda: flat_read_series_reference(text, b))
        _agree(got, want)
        assert got.component(b.element((1, 1))) == {F(1, 4): 3}
    assert "m=2/8" not in b._vocabulary and "m=+1/4" not in b._vocabulary
    assert b._vocabulary["m=1/4"] == 1 and _coordinate_entries(b) == [(1, 1)]


@pytest.mark.parametrize("record", [
    "mu=(32,0) m=1/31 coeff=1",  # not congruent: Q((1,0)) = 0
    "mu=(1,1) m=1/62 coeff=1",  # N*m is not an integer
    "mu=(1,1) m=63/31 coeff=1",  # past the truncation
    "mu=(1,1,0) m=1/31 coeff=1",
    "mu=(1,1) m=1/31 coeff=1 * z",
    "mu=(1,1,0) m=1/62 coeff=1 * z",  # the coordinates are refused first
    "mu=(1,1) m=1/62 coeff=1 * z",  # the coefficient before the exponent
])
def test_refusals_keep_their_messages_on_a_cold_and_a_warm_vocabulary(record):
    """A bad record refuses as the flat reader does, before or after the
    records that spell its fields, and ahead of a later bad record."""
    a = fqm.hyperbolic_module(31)
    lines = NON_CANONICAL_H31.splitlines()
    later = "mu=(2,1) m=1/31 coeff=1"  # not congruent: Q((2,1)) = 2/31
    for at in (3, len(lines), 3, len(lines)):  # cold, then warm
        for bad in ([record], [record, later]):
            text = "\n".join(lines[:at] + bad + lines[at:]) + "\n"
            assert _same_call(lambda: qs.read_series(text, a),
                              lambda: flat_read_series_reference(text, a)) is None


def test_vocabulary_holds_one_entry_per_element_however_files_spell_them():
    """Files on H(2) and H(31) spelling each element many ways leave at most
    |A| coordinate entries, and one mu text per entry."""
    for n, shifts in ((2, range(-3, 4)), (31, (-1, 0, 2))):
        a = fqm.hyperbolic_module(n)
        head = "module: %d,%d\nweight: 2\ntruncation: 1\n" % (n, n)
        for s in shifts:
            records = ["mu=(%d,%d) m=%d/%d coeff=%d" % (x + s * n, y - s * n, x * y % n, n, x + y)
                       for x in range(n) for y in range(n)]
            f = qs.read_series(head + "\n".join(records) + "\n", a)
            assert f.nonzero_count() == n * n - 1
        entries = _coordinate_entries(a)
        assert len(entries) == a.order() == len({key for key in a._vocabulary
                                                 if type(key) is str and key[:3] == "mu="})


def test_down_arrow_builds_no_element_per_fiber():
    rng = random.Random(35)
    a, e = u_with_line(12)
    for d in (2, 3, 4, 6):
        h = fqm.cyclic_subgroup_id(a, e, d)
        qs.reduction(a, h)  # the cached reduction builds its elements once
        f = random_series(a, F(3), F(2), rng)
        down, built = _elements_built(lambda: qs.down_arrow(f, h))
        assert built == 0
        _agree(down, flat_down_arrow_reference(_flat(f), h))


def _flat(f):
    """The flat oracle holding the coefficients of f."""
    r = FlatQSeriesReference(f.module, f.weight, f.truncation)
    r.coefficients = dict(f.items())
    return r


def test_write_series_of_shared_components_matches_the_flat_writer():
    # the level-11 kernel lift: its 14641 components share a few dicts
    g = lifts.eta_quotient({1: 2, 11: 2}, 1100)
    vec, _report = lifts.kernel_element(lifts.NewformData(g, -1, 2, 11), 2, 2)
    assert len({id(c) for c in vec.components.values()}) < 20 < len(vec.components) == 11 ** 4
    assert qs.write_series(vec) == flat_write_series_reference(_flat(vec))
    # up_arrow outputs share one dict per fiber; half the values are cyclotomic over a
    # denominator
    rng = random.Random(19)
    checked = 0
    while checked < 8:
        a = random_module(rng, max_order=60)
        h = random_isotropic_subgroup(rng, a)
        if h.order == 1:
            continue
        b = qs.reduction(a, h)[0]
        base = random_series(b, F(3), F(2), rng)
        for (coords, m), _v in list(base.items())[::2]:
            terms = {rng.randrange(12): F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)}
            base.set(b.element(coords), m, CyclotomicNumber(12, terms))
        up = qs.up_arrow(base, a, h)
        assert len({id(c) for c in up.components.values()}) < len(up.components)
        assert qs.write_series(up) == flat_write_series_reference(_flat(up))
        checked += 1


@pytest.mark.parametrize("record, message", [
    ("mu=(1,2) m=1/2", "malformed series record %r"),
    ("mu=(1,x) m=1/2 coeff=2/4", "malformed series record %r"),
    ("mu=(1,2) m=1/0 coeff=2/4", "malformed series record %r"),
    ("mu=(1,2) m=1/3 coeff=2/4", "exponent 1/3 is not congruent to Q((1,2)) mod 1"),
    ("mu=(5,2) m=1/4 coeff=-3", "exponent 1/4 is not congruent to Q((1,2)) mod 1"),
    ("mu=(1,2) m=5/2 coeff=2/4", "exponent exceeds the truncation bound"),
    ("mu=(1,2,0) m=1/2 coeff=2/4", "coordinate length mismatch"),
    ("mu=(1,2,0) m=1/3 coeff=1 * z", "coordinate length mismatch"),
    ("mu=(1,2) m=1/3 coeff=1 * z", "malformed coefficient '1 * z'"),
])
def test_read_series_refusals_keep_their_messages(record, message):
    """A bad record refuses with its own message, before or after the records
    whose fields it repeats; the first bad record decides."""
    a = fqm.hyperbolic_module(4)
    lines = REPEATED_FIELDS.splitlines()
    if "%r" in message:
        message %= record
    for at in (3, len(lines)):
        text = "\n".join(lines[:at] + [record] + lines[at:]) + "\n"
        with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
            qs.read_series(text, a)
        if not message.startswith("malformed series record"):
            _same_call(lambda: qs.read_series(text, a),
                       lambda: flat_read_series_reference(text, a))
    later = "\n".join(lines + [record, "mu=(1,2) m=1/3 coeff=1"]) + "\n"
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        qs.read_series(later, a)


def test_equal_modules_share_hashes_and_the_reduction_cache(monkeypatch):
    monkeypatch.setattr(qs, "_REDUCTIONS", {})
    a1, a2 = fqm.hyperbolic_module(6), fqm.hyperbolic_module(6)
    assert a1 is not a2 and a1 == a2 and hash(a1) == hash(a2)
    x1, x2 = a1.element((2, 3)), a2.element((2, 3))
    assert x1 == x2 and hash(x1) == hash(x2) and len({x1, x2}) == 1
    h1, h2 = (fqm.Subgroup.from_generators(a, [a.element((3, 0))]) for a in (a1, a2))
    assert h1 == h2 and hash(h1) == hash(h2) and len({h1, h2}) == 1
    first = qs.reduction(a1, h1)
    assert qs.reduction(a2, h2) is first and len(qs._REDUCTIONS) == 1
    # a different module of the same shape gets its own entry
    b = fqm.negate(a1)
    qs.reduction(b, fqm.Subgroup.from_generators(b, [b.element((3, 0))]))
    assert len(qs._REDUCTIONS) == 2 and b != a1


def test_reduction_cache_is_bounded_and_hits_are_identical(monkeypatch):
    # past REDUCTION_CACHE entries the oldest is evicted; a kept entry is returned as is
    assert qs.REDUCTION_CACHE == 256
    monkeypatch.setattr(qs, "_REDUCTIONS", {})
    monkeypatch.setattr(qs, "REDUCTION_CACHE", 3)
    a = fqm.hyperbolic_module(6)
    hs = [fqm.Subgroup.from_generators(a, [a.element(g)])
          for g in ((3, 0), (0, 3), (2, 0), (0, 2), (1, 0))]
    first = [qs.reduction(a, h) for h in hs]
    assert len(qs._REDUCTIONS) == 3
    assert all(qs.reduction(a, h) is r for h, r in zip(hs[2:], first[2:]))
    again = qs.reduction(a, hs[0])
    assert again is not first[0] and again[3] == first[0][3]
    # hits do not refresh an entry: hs[2] was the oldest and is gone
    assert len(qs._REDUCTIONS) == 3 and qs.reduction(a, hs[2]) is not first[2]
    assert qs.reduction(a, hs[0]) is again


def test_cached_nq_never_crosses_modules():
    """nq_value keeps N*Q on an element of its own module only: an element read
    through an equal but distinct module, or through a module of the same
    shape with another form, gets that module's value and keeps nothing."""
    a, twin = fqm.hyperbolic_module(6), fqm.hyperbolic_module(6)
    b = fqm.negate(a)  # orders (6, 6), the form -Q
    for coords, nq in (((1, 1), 1), ((2, 5), 4), ((0, 3), 0)):
        x = a.element(coords)
        assert b.nq_value(x) == (-nq) % 6 == b.nq_value(b.element(coords))
        assert twin.nq_value(x) == nq and x._nq is None
        assert a.nq_value(x) == nq and x._nq == nq
        assert b.nq_value(x) == (-nq) % 6 and twin.nq_value(x) == nq
        assert x.q() == F(nq, 6) and b.q_value(x) == F((-nq) % 6, 6)
        y = b.element(coords)
        assert b.nq_value(y) == (-nq) % 6 and a.nq_value(y) == nq == twin.nq_value(y)


def test_pairing_at_and_set_take_int_fraction_and_str_exponents():
    rng = random.Random(317)
    a = fqm.hyperbolic_module(6)
    (f, r), (g, s) = _oracle_pair(a, rng, F(2)), _oracle_pair(a, rng, F(2))
    for m in (0, 1, 2, 3, -1, F(1, 3), F(-1, 3), F(-7, 6), F(1, 12), F(-1, 13), F(13, 6),
              "1/3", "-1/2", "5/6", "1/12", "-2", "2", "0.5"):
        assert qs.pairing_at(f, g, m) == flat_pairing_at_reference(r, s, m), m
    assert qs.pairing_at(f, f, "7/6") == qs.pairing_at(f, f, F(7, 6))
    mu, zero = a.element((1, 2)), a.zero()  # Q(mu) = 1/3
    for x, m in ((mu, F(4, 3)), (mu, "1/3"), (mu, "2/6"), (mu, 1), (mu, "7/3"), (mu, F(-2, 3)),
                 (zero, 0), (zero, 2), (zero, "1"), (zero, 3), (zero, -1), (zero, "1/2"),
                 (zero, 1.0)):
        v = F(rng.randint(-3, 3), rng.randint(1, 3))
        _same_call(lambda: f.set(x, m, v), lambda: r.set(x, m, v))
        assert f.get(x, m) == r.get(x, m)
    _agree(f, r)


def test_set_never_writes_through_a_shared_component():
    """up_arrow, copy, vector_lift_closed and f * 1 may share component dicts;
    a set on one mu changes that mu's component only, and never the source."""
    rng = random.Random(909)
    a, e = u_with_line(6)
    h = fqm.cyclic_subgroup_id(a, e, 3)
    g = random_series(qs.reduction(a, h)[0], F(3), F(2), rng, density=0.9)
    f = random_series(a, F(3), F(2), rng, density=0.9)
    scalar = lifts.ScalarQSeries(2, 3, 9)
    for l in range(10):
        scalar.set(l, rng.randint(1, 5))
    lift_module = lifts.lift_module(3, 2)
    vec = lifts.vector_lift_closed(scalar, scalar * 2, lift_module, 2, 3, 2, truncation=2)

    def snapshot(series):
        return {x.coords: series.component(x) for x in series.module.elements()}

    # (source, derived, whether derived must share a component dict)
    for source, derived, sharing in ((g, qs.up_arrow(g, a, h), True), (f, f.copy(), True),
                                     (f, f * 1, False), (vec, vec, True)):
        source_before = snapshot(source)
        scalar_before = dict(scalar.coefficients)
        before = snapshot(derived)
        holders = Counter(map(id, derived.components.values()))
        if source is not derived:
            holders.update(map(id, source.components.values()))
        shared = [c for c in derived.support() if holders[id(derived.components[c])] > 1]
        assert shared or not sharing
        mu = derived.module.element((shared or derived.support())[0])
        m = min(derived.component(mu))
        derived.set(mu, m, derived.get(mu, m) + 1)
        after = snapshot(derived)
        assert after[mu.coords] != before[mu.coords]
        assert all(after[c] == before[c] for c in before if c != mu.coords)
        if source is not derived:
            assert snapshot(source) == source_before
        assert scalar.coefficients == scalar_before


def test_no_operation_writes_into_a_stored_component():
    """Component dicts are immutable once stored: sets, copy, +, *, the arrows and
    oldform_decompose leave every dict that some series held as it was."""
    rng = random.Random(930)
    a, e = u_with_line(6)
    kept = {}

    def keep(*series):
        # the reference keeps each dict alive, so its id is never reused
        for s in series:
            for comp in s.components.values():
                kept.setdefault(id(comp), (comp, dict(comp)))

    def sets(*series):
        # two passes, so the second set into a component finds the dict of the first
        for _ in range(2):
            for s in series:
                for mu in s.module.elements():
                    m = mu.q() + rng.randint(0, 1)
                    s.set(mu, m, s.get(mu, m) + rng.randint(-1, 1))
                keep(s)

    # an oldform sum, as in the oldform tests: up_arrow shares one dict per fiber
    f = None
    for d in (2, 3, 6):
        i_d = fqm.cyclic_subgroup_id(a, e, d)
        b, proj, _s, _fib = qs.reduction(a, i_d)
        g = newpart_series(b, proj(e), F(3), F(2), rng) if d != 6 \
            else random_series(b, F(3), F(2), rng)
        piece = qs.up_arrow(g, a, i_d)
        f = piece if f is None else f + piece
        keep(g, piece, f)
    parts = qs.oldform_decompose(f, e, 1)
    keep(*parts.values())
    holders = Counter(id(comp) for s in (f, *parts.values()) for comp in s.components.values())
    assert max(holders.values()) > 1
    h = fqm.cyclic_subgroup_id(a, e, 3)
    down = qs.down_arrow(f, h)
    derived = [f.copy(), f + f, f * 1, f * F(1, 2), down, qs.up_arrow(down, a, h)]
    keep(*derived)
    sets(f, *derived, *parts.values())
    assert len(kept) > 100
    assert all(comp == snapshot for comp, snapshot in kept.values())


def test_set_after_sharing_leaves_the_sharer_unchanged():
    # copy, a sum and up_arrow share component dicts, so the source gives up
    # ownership: a set on either side copies again and leaves the other alone
    a, e = u_with_line(6)
    h = fqm.cyclic_subgroup_id(a, e, 3)
    b = qs.reduction(a, h)[0]
    mu = a.element((1, 1))
    nu = b.element((0,) * len(b.orders))
    f = qs.VectorValuedQSeries(a, F(3), F(2))
    g = qs.VectorValuedQSeries(b, F(3), F(2))
    f.set(mu, mu.q(), 1)
    f.set(mu, mu.q() + 1, 2)
    g.set(nu, 1, 3)
    g.set(nu, 2, 4)
    for make in (lambda: f.copy(), lambda: f + qs.VectorValuedQSeries(a, F(3), F(2))):
        derived = make()
        before = dict(derived.components[mu.coords])
        f.set(mu, mu.q(), 5)
        assert derived.components[mu.coords] == before
        derived.set(mu, mu.q() + 1, 6)
        assert f.get(mu, mu.q() + 1) == 2
    raised = qs.up_arrow(g, a, h)
    before = {c: dict(comp) for c, comp in raised.components.items()}
    g.set(nu, 1, 7)
    assert {c: dict(comp) for c, comp in raised.components.items()} == before


def _check_storage(f):
    """No stored value is an integral Fraction, and the flat reader reads f back."""
    values = [v for comp in f.components.values() for v in comp.values()]
    assert not any(isinstance(v, F) and v.denominator == 1 for v in values)
    _agree(f, flat_read_series_reference(qs.write_series(f), f.module))
    return Counter(type(v) for v in values)


def test_integral_coefficients_are_stored_as_ints():
    """set, read_series, the arrows, products, sums, reconstruction, the oldform
    decomposition and the kernel lift store an integral rational as an int and a
    non-integral one as a Fraction."""
    rng = random.Random(2020)
    seen = Counter()
    for profile in NEWFORM_PROFILES:
        a = profile_module(profile)
        h = random_isotropic_subgroup(rng, a)
        b = qs.reduction(a, h)[0]
        f = qs.VectorValuedQSeries(a, F(3), F(2))
        for mu in a.elements():
            m = mu.q()
            while m <= 2:
                if rng.random() < 0.5:
                    f.set(mu, m, F(rng.randint(-9, 9), rng.choice((1, 2, 3))))
                m += 1
        g = random_series(b, F(3), F(2), rng)
        up = qs.up_arrow(g, a, h)
        rec, report = qs.reconstruct_from_descent(up, h)
        assert report["reconstructed"]
        for s in (f, qs.read_series(qs.write_series(f), a), qs.down_arrow(f, h), f * F(2),
                  f * F(6, 2), f * F(1, 2), f * F(1, 2) * 2, f + f * F(1, 2), f - f * F(1, 3),
                  g, up, qs.down_arrow(up, h), rec):
            seen += _check_storage(s)
    for n, t in ((12, 1), (30, 2)):
        a, e = u_with_line(n)
        f = None
        for d in range(2, n + 1):
            if n % d or qs._omega(d) < t:
                continue
            i_d = fqm.cyclic_subgroup_id(a, e, d)
            b, proj, _s, _fib = qs.reduction(a, i_d)
            g = newpart_series(b, proj(e), F(3), F(2), rng) if d != n \
                else random_series(b, F(3), F(2), rng)
            piece = qs.up_arrow(g, a, i_d) * F(1, 2)
            f = piece if f is None else f + piece
        for g in qs.oldform_decompose(f, e, t).values():
            seen += _check_storage(g)
    g = lifts.eta_quotient({1: 2, 11: 2}, 1100)
    vec, _report = lifts.kernel_element(lifts.NewformData(g, -1, 2, 11), 2, 2, truncation=F(1))
    seen += _check_storage(vec)
    # a lift whose rescaled coefficients a_tilde(pm) / p^2 are integral
    s = lifts.ScalarQSeries(2, 3, 3)
    for l in range(4):
        s.set(l, rng.choice((9, 18, 3)) * (l + 1))
    seen += _check_storage(lifts.vector_lift_closed(s, s, lifts.lift_module(3, 2), 2, 3, 2))
    assert seen[int] > 1000 and seen[F] > 1000, seen
