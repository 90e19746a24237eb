import cmath
import random
import resource
import time
from fractions import Fraction as F
from math import gcd

import pytest

from discforms import fqm, weil
from discforms.cyclo import e_frac
from discforms.errors import PreconditionError
from helpers import plus_subspace_reference, random_module


def test_metaplectic_group_relations():
    t, s, z = weil.gen_T(), weil.gen_S(), weil.gen_Z()
    assert s @ s == z
    st = s @ t
    assert st @ st @ st == z
    zz = z @ z
    assert zz.matrix == ((1, 0), (0, 1)) and zz.bit == 1
    assert (zz @ zz).bit == 0
    assert (s @ s.inverse()).matrix == ((1, 0), (0, 1))
    # powers agree with repeated products, branch bit included
    for g in (t, s, st, weil.MetaplecticElement(((2, 1), (1, 1)), bit=1)):
        for sign, base in ((1, g), (-1, g.inverse())):
            rep = weil.MetaplecticElement(((1, 0), (0, 1)))
            for n in range(14):
                assert g ** (sign * n) == rep, (g, sign * n)
                rep = rep @ base


def _numeric_product(x, y):
    """x @ y with the branch bit decided by complex values at tau = i.

    The numeric rule that the integer cocycle replaced: phi_x(y i) phi_y(i)
    is compared with the principal root of c i + d for the product matrix.
    """
    (a, b), (c, d) = x.matrix
    (e, f), (g, h) = y.matrix
    m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    val = x.phi_at((e * 1j + f) / (g * 1j + h)) * y.phi_at(1j)
    principal = cmath.sqrt(m[1][0] * 1j + m[1][1])
    return weil.MetaplecticElement(m, 0 if abs(val - principal) < abs(val + principal) else 1)


def _numeric_inverse(x):
    (a, b), (c, d) = x.matrix
    for bit in (0, 1):
        cand = weil.MetaplecticElement(((d, -b), (-c, a)), bit)
        if _numeric_product(x, cand) == weil.MetaplecticElement(((1, 0), (0, 1))):
            return cand
    raise AssertionError("no inverse branch")


def test_integer_cocycle_matches_numeric_rule():
    # every word of length <= 6 in S, T, Z and their inverses, built letter by
    # letter: products and inverses agree with the numeric rule at every node
    gens = [weil.gen_S(), weil.gen_T(), weil.gen_Z()]
    letters = gens + [g.inverse() for g in gens]
    assert [g.inverse() for g in gens] == [_numeric_inverse(g) for g in gens]
    level = [weil.MetaplecticElement(((1, 0), (0, 1)))]
    seen = 0
    for _length in range(6):
        nxt = []
        for w in level:
            for x in letters:
                got = w @ x
                assert got == _numeric_product(w, x), (w, x)
                assert got.inverse() == _numeric_inverse(got), got
                nxt.append(got)
        seen += len(nxt)
        level = nxt
    assert seen == sum(6 ** k for k in range(1, 7))


def test_rho_T():
    a = fqm.trivial_module()
    assert weil.rho_T(a).is_identity()
    a2 = fqm.cyclic_module(2, F(1, 4))
    m = weil.rho_T(a2)
    assert m.entry(0, 0) == 1 and m.entry(1, 1) == e_frac(F(1, 4))
    b = fqm.fqm_from_gram([[2, 1], [1, 2]])
    assert weil.rho_T(b, b.level()).is_identity()


def test_rho_S_trivial():
    assert weil.rho_S(fqm.trivial_module()).is_identity()


@pytest.mark.parametrize("seed", range(4))
def test_relations_on_random_modules(seed):
    rng = random.Random(400 + seed)
    for _ in range(5):
        a = random_module(rng, max_order=36)
        rep = weil.relation_report(a)
        assert all(rep.values()), (a.orders, rep)


def test_direct_braid_cube_small():
    for a in (fqm.cyclic_module(3, F(1, 3)),
              fqm.cyclic_module(4, F(3, 8)),
              fqm.hyperbolic_module(3),
              fqm.fqm_from_gram([[4]])):
        s = weil.rho_S(a)
        st = s @ weil.rho_T(a)
        assert (st @ st @ st) == weil.rho_Z(a)
        assert (s @ s) == weil.rho_Z(a)


def test_rho_of_generator_and_words():
    a = fqm.hyperbolic_module(5)
    assert weil.rho_of(a, weil.gen_T()) == weil.rho_T(a)
    g = weil.gen_S() @ weil.gen_T() @ weil.gen_T()
    assert weil.rho_of(a, g) == weil.rho_S(a) @ weil.rho_T(a) @ weil.rho_T(a)


def test_rho_of_trivial_on_congruence_subgroup():
    # even-signature module: both metaplectic lifts act as the identity
    a = fqm.hyperbolic_module(5)
    assert a.signature() % 2 == 0
    for mat in (((1, 5), (0, 1)), ((1, 0), (5, 1)), ((26, 5), (5, 1)), ((-4, 5), (-5, 6))):
        assert weil.rho_of(a, weil.MetaplecticElement(mat)).is_identity()


def test_rho_of_odd_signature_scalar_on_congruence():
    # one of the two lifts acts trivially; the other by the central scalar
    a = fqm.fqm_from_gram([[2]])  # level 4, signature 1
    ident = weil.identity_matrix(a)
    neg = ident.scaled(e_frac(F(-a.signature(), 2)))
    for mat in (((1, 4), (0, 1)), ((1, 0), (4, 1)), ((5, 4), (16, 13))):
        m = weil.rho_of(a, weil.MetaplecticElement(mat))
        assert m == ident or m == neg


def _gamma0_matrices(level):
    """Matrices (a b; c d) of determinant one with level | c and d not 1 mod level.

    Every fifth candidate is kept, which keeps the test short.
    """
    out = []
    for c in (level, -level, 2 * level):
        for d in range(-level - 1, 2 * level):
            if d % level in (0, 1) or gcd(c, d) != 1:
                continue
            a = pow(d, -1, abs(c))
            out.append(((a, (a * d - 1) // c), (c, d)))
    return out[::5]


@pytest.mark.parametrize("make", [
    lambda: fqm.hyperbolic_module(5),
    lambda: fqm.cyclic_module(7, F(1, 7)),
    # odd signature, level 20
    lambda: fqm.direct_sum(fqm.fqm_from_gram([[2]]), fqm.cyclic_module(5, F(1, 5))),
], ids=["H(5)", "Z7", "A1+Z5"])
def test_rho_of_monomial_on_gamma0(make):
    # rho_of writes M as a word in S and T. On Gamma0(level) the result must be
    # monomial, and the code follows the convention
    #     rho(M) e_gamma = chi(M) * e(b*d*Q(gamma)) * e_{d*gamma},
    # so the nonzero entry of column e_gamma sits at row e_{d*gamma}. (The dual,
    # complex-conjugate representation has e(-b*d*Q(gamma)); a convention with
    # e_{a*gamma} would fail here, since a*gamma != d*gamma for some gamma.)
    a = make()
    level = a.level()
    elts = a.elements()
    idx = {x.coords: i for i, x in enumerate(elts)}
    n = len(elts)
    mats = _gamma0_matrices(level)
    assert len(mats) >= 3
    distinguished = False
    for m in mats:
        (ma, mb), (_mc, md) = m
        distinguished |= any(ma * x != md * x for x in elts)
        for bit in (0, 1):
            r = weil.rho_of(a, weil.MetaplecticElement(m, bit))
            support = [[i for i in range(n) if not r.mat[i][j].is_zero()] for j in range(n)]
            assert all(len(rows) == 1 for rows in support), (m, bit)
            assert sorted(rows[0] for rows in support) == list(range(n)), (m, bit)
            chi = r.entry(0, 0)
            for j, x in enumerate(elts):
                assert support[j] == [idx[(md * x).coords]], (m, bit, x)
                assert (r.entry(idx[(md * x).coords], j)
                        - chi * e_frac(mb * md * x.q())).is_zero(), (m, bit, x)
    assert distinguished


def test_rho_of_rejects_non_unimodular():
    with pytest.raises(PreconditionError):
        weil.MetaplecticElement(((2, 0), (0, 1)))


def test_rho_of_other_lift_differs_by_central_scalar():
    a = fqm.fqm_from_gram([[2]])
    lifted = weil.rho_of(a, weil.MetaplecticElement(((1, 1), (0, 1)), bit=1))
    assert lifted == weil.rho_T(a).scaled(e_frac(F(-a.signature(), 2)))


def test_aut_identity_and_negation():
    a = fqm.hyperbolic_module(4)
    ident = weil.aut_matrix(a, fqm.identity_automorphism(a))
    assert ident.is_identity()
    p = weil.aut_matrix(a, fqm.negation_automorphism(a))
    assert p == weil.rho_Z(a).scaled(e_frac(F(a.signature(), 4)))


def test_phi_r_commutes_with_S():
    a = fqm.hyperbolic_module(7)
    m = weil.aut_matrix(a, fqm.phi_r(a, 3))
    s = weil.rho_S(a)
    t = weil.rho_T(a)
    assert (m @ s) == (s @ m)
    assert (m @ t) == (t @ m)


def test_duality_with_negated_module():
    for a in (fqm.cyclic_module(3, F(1, 3)), fqm.hyperbolic_module(4),
              fqm.fqm_from_gram([[2]])):
        s = weil.rho_S(a)
        s_neg = weil.rho_S(fqm.negate(a))
        # entries of the negated module's S matrix equal the conjugates
        n = s.size
        for i in range(n):
            for j in range(n):
                assert (s_neg.entry(i, j) - s.entry(i, j).conjugate()).is_zero()


def test_plus_subspace_dimensions():
    reps, w, _t, _s, _st = plus_subspace_reference(fqm.trivial_module(), F(12))
    assert len(reps) == 1 and w == [1]
    reps, w, *_ = plus_subspace_reference(fqm.cyclic_module(3, F(1, 3)), F(1))
    assert len(reps) == 2 and w == [1, 2]


def test_plus_subspace_parity_guard():
    with pytest.raises(PreconditionError):
        plus_subspace_reference(fqm.cyclic_module(3, F(1, 3)), F(2))


def test_plus_subspace_restricted_unitarity():
    rng = random.Random(77)
    checked = 0
    while checked < 6:
        a = random_module(rng, max_order=30)
        sig = a.signature()
        k = F(sig, 2) if sig % 2 == 0 else F(sig, 2)
        if (2 * k - sig) % 4 != 0:
            continue
        reps, w, tm, sm, stm = plus_subspace_reference(a, k)
        n = len(reps)
        for m in (tm, sm, stm):
            for i in range(n):
                for j in range(n):
                    tot = sum(m.entry(t, i).conjugate() * m.entry(t, j) * w[t]
                              for t in range(n))
                    want = w[i] if i == j else 0
                    assert (tot - want).is_zero()
        checked += 1


def test_relations_at_orders_484_and_961():
    # H(11) + H(2) and H(31), beyond the order-200 suite of criterion 3
    start = time.perf_counter()
    for a in (fqm.direct_sum(fqm.hyperbolic_module(11), fqm.hyperbolic_module(2)),
              fqm.hyperbolic_module(31)):
        rep = weil.relation_report(a)
        assert len(rep) == 8 and all(rep.values()), (a.orders, rep)
    assert time.perf_counter() - start < 60
    # peak resident size of the whole test process, in MiB on Linux
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 500 * 1024


def test_z_squared_scalar():
    a = fqm.fqm_from_gram([[2]])
    z = weil.rho_Z(a)
    assert (z @ z) == weil.identity_matrix(a).scaled(e_frac(F(-a.signature(), 2)))


def test_relation_suite_refuses_modules_above_the_order_bound():
    a = fqm.hyperbolic_module(51)  # order 2601
    assert a.order() > weil.ORDER_BOUND >= 961
    start = time.perf_counter()
    for call in (weil.relation_report, weil.rho_S, weil.rho_T):
        with pytest.raises(PreconditionError, match="exceeds the Weil representation bound"):
            call(a)
    assert a._weil_tables is None
    assert time.perf_counter() - start < 1
