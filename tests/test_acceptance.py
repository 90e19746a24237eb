"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with -s to see the per-criterion lines. Every assertion here is exact
(integer or rational equality) except the stated floating-point tolerances
of the special-function criterion.
"""

import math
import random
from fractions import Fraction as F

import pytest

from discforms import cli, cyclo, dims, fqm, lattice, lifts, qseries as qs, specfun, weil
from discforms._intmat import signature_pair
from helpers import (newpart_series, random_even_gram, random_isotropic_subgroup,
                     random_module, random_series)

TABLE_1 = [1, 1, 1, 1, 3, 2, 4, 3, 7, 9, 11, 7, 19, 16, 19, 17, 33, 28, 37]


def test_criterion_1_table_reproduction(capsys):
    rows = dims.picard_rank_table(range(1, 20))
    assert [r for _n, r in rows] == TABLE_1
    code = cli.main(["dims", "table1", "--nmax", "19"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "".join("%d\t%d\n" % (n, r) for n, r in zip(range(1, 20), TABLE_1))
    with capsys.disabled():
        print("\nACCEPTANCE 1 (Table 1 ranks 1..19, exact): PASS")


def test_criterion_2_calibration(capsys):
    rep = dims.dim_M(fqm.trivial_module(), 12)
    assert rep.dim_M == 2 and rep.dim_S == 1
    with capsys.disabled():
        print("ACCEPTANCE 2 (trivial module k=12: dim M=2, dim S=1): PASS")


def _weil_suite_modules():
    c, h, g = fqm.cyclic_module, fqm.hyperbolic_module, fqm.fqm_from_gram
    s = fqm.direct_sum
    mods = [
        c(2, F(1, 4)), c(2, F(3, 4)), c(3, F(1, 3)), c(3, F(2, 3)),
        c(4, F(1, 8)), c(4, F(7, 8)), c(5, F(1, 5)), c(7, F(1, 7)),
        c(8, F(1, 16)), c(9, F(1, 9)),
        g([[2]]), g([[4]]), g([[2, 1], [1, 2]]), g([[2, -1], [-1, 2]]),
        g([[4, 1], [1, 4]]), g([[6]]), g([[2, 0], [0, 4]]),
        h(2), h(3), h(4), h(5), h(6), h(7),
        s(h(2), c(3, F(1, 3))), s(h(3), c(2, F(1, 4))), s(h(2), h(3)),
        s(h(4), c(2, F(1, 4))), s(c(2, F(1, 4)), s(c(4, F(1, 8)), c(8, F(1, 16)))),
    ]
    seven_halves = fqm.trivial_module()
    for _ in range(7):
        seven_halves = s(seven_halves, c(2, F(1, 4)))
    mods.append(seven_halves)                       # |A| = 128, level 4
    mods.append(h(12))                              # |A| = 144, level 12
    mods.append(h(13))                              # |A| = 169, level 13
    mods.append(s(s(h(2), h(2)), s(h(2), c(3, F(1, 3)))))  # |A| = 192, level 6
    mods.append(s(h(7), h(2)))                      # |A| = 196, level 14
    return mods


def test_criterion_3_weil_relations(capsys):
    mods = _weil_suite_modules()
    assert len(mods) >= 30
    assert all(m.order() <= 200 for m in mods)
    failures = []
    for m in mods:
        rep = weil.relation_report(m)
        if not all(rep.values()):
            failures.append((m.orders, rep))
    assert failures == []
    with capsys.disabled():
        print("ACCEPTANCE 3 (Weil relations on %d modules, |A| <= 200, exact): PASS"
              % len(mods))


def test_criterion_4_milgram(capsys):
    rng = random.Random(20240808)
    for i in range(100):
        gram = random_even_gram(rng, max_rank=6, max_det=1000)
        a = fqm.fqm_from_gram(gram)
        g = cyclo.gauss_sum(a, 1)
        assert (g * g.conjugate()).rational_value() == a.order(), (i, gram)
        bp, bm = signature_pair(gram)
        assert a.signature() == (bp - bm) % 8, (i, gram)
    with capsys.disabled():
        print("ACCEPTANCE 4 (Milgram magnitude and signature, 100 random grams): PASS")


def test_criterion_5_newform_machinery(capsys):
    rng = random.Random(555)
    # down-up and adjointness, 100 exact cases each
    down_up = adjoint = 0
    while down_up < 100:
        a = random_module(rng, max_order=48)
        h = random_isotropic_subgroup(rng, a)
        b, _p, _s, _f = qs.reduction(a, h)
        g = random_series(b, F(3), F(2), rng)
        up = qs.up_arrow(g, a, h)
        assert qs.down_arrow(up, h) == g * h.order
        down_up += 1
        f = random_series(a, F(3), F(2), rng)
        down_f = qs.down_arrow(f, h)
        for m in (F(0), F(1), F(2), F(1, 2), F(1, 3)):
            assert qs.pairing_at(up, f, m) == qs.pairing_at(g, down_f, m)
        adjoint += 1
    # reconstruction on arrow images
    for _ in range(10):
        a = random_module(rng, max_order=48)
        h = random_isotropic_subgroup(rng, a)
        if h.order == 1:
            continue
        b, *_ = qs.reduction(a, h)
        f = qs.up_arrow(random_series(b, F(3), F(2), rng), a, h)
        rec, report = qs.reconstruct_from_descent(f, h)
        assert report["reconstructed"] and rec == f
    # inclusion-exclusion over two and three primes
    for n, primes in ((6, (2, 3)), (30, (2, 3, 5))):
        a = fqm.hyperbolic_module(n)
        e = a.element((0, 1))
        subs = [fqm.cyclic_subgroup_id(a, e, p) for p in primes]
        f = None
        for h in subs:
            b, *_ = qs.reduction(a, h)
            piece = qs.up_arrow(random_series(b, F(3), F(2), rng), a, h)
            f = piece if f is None else f + piece
        total = None
        for _idx, sign, term in qs.decompose_prime_union(f, subs):
            piece = term * sign
            total = piece if total is None else total + piece
        assert total == f
    # cyclic filtration round trips
    for n in (12, 30):
        a = fqm.hyperbolic_module(n)
        e = a.element((0, 1))
        for t in (1, 2):
            f = None
            for d in range(2, n + 1):
                if n % d or qs._omega(d) < t:
                    continue
                i_d = fqm.cyclic_subgroup_id(a, e, d)
                b, proj, _s, _fib = qs.reduction(a, i_d)
                g = newpart_series(b, proj(e), F(3), F(2), rng) if d != n \
                    else random_series(b, F(3), F(2), rng)
                piece = qs.up_arrow(g, a, i_d)
                f = piece if f is None else f + piece
            dec = qs.oldform_decompose(f, e, t)
            assert qs.resum_decomposition(dec, a, e) == f
    with capsys.disabled():
        print("ACCEPTANCE 5 (arrows, reconstruction, decompositions, filtration): PASS")


def test_criterion_6_lattice_constructions(capsys):
    def un(n):
        return [[0, n], [n, 0]]

    def block(*mats):
        size = sum(len(m) for m in mats)
        out = [[0] * size for _ in range(size)]
        o = 0
        for m in mats:
            for i in range(len(m)):
                for j in range(len(m)):
                    out[o + i][o + j] = m[i][j]
            o += len(m)
        return out

    instances = []
    for d_gram, d_level in ((None, 1), ([[2]], 4), ([[4]], 8),
                            ([[2, 1], [1, 2]], 3), ([[2, 0], [0, 2]], 4)):
        for mult in (1, 2, 3, 4):
            n = d_level * mult
            instances.append((block(d_gram, un(n)) if d_gram else un(n), n,
                              len(d_gram) if d_gram else 0))
    assert len(instances) >= 20
    for gram, n, off in instances:
        lat = lattice.EvenLattice(gram)
        assert lat.level() == n
        ell = [0] * off + [1, 0]
        ell_tilde, k_lat, rows = lattice.split_UN(lat, ell)
        assert all(isinstance(x, int) for x in ell_tilde)
        new_gram = [[lat.bilinear(rows[i], rows[j]) for j in range(lat.rank)]
                    for i in range(lat.rank)]
        m = lat.rank - 2
        assert new_gram[m][m] == 0 and new_gram[m][m + 1] == n
        assert new_gram[m + 1][m] == n and new_gram[m + 1][m + 1] == 0
        for i in range(m):
            assert new_gram[i][m] == 0 and new_gram[i][m + 1] == 0
            for j in range(m):
                assert new_gram[i][j] == k_lat.gram[i][j]
    # sublattice with the full pairing ideal: level preserved, hyperbolic split
    z2u = lattice.EvenLattice(block([[2]], un(1)))
    k0, basis, t = lattice.sublattice_K0(z2u, [0, 1, 0])
    assert t == 4 and k0.level() == 4
    y = lattice.express_in_basis(basis, [0, 1, 0])
    _et, _kk, _rows = lattice.split_UN(k0, y)
    # Eichler maps: exact Q preservation, trivial discriminant action
    lat = lattice.EvenLattice(block([[2]], un(3), un(1)))
    u = [0, 1, 0, 0, 0]
    for v in ([0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [2, 0, 0, 3, -1]):
        if lat.bilinear(u, v) != 0:
            continue
        e = lattice.eichler(lat, u, v)
        assert e.preserves_q and e.in_discriminant_kernel
        e_inv = lattice.eichler(lat, u, [-x for x in v])
        assert e.compose(e_inv).is_identity()
    with capsys.disabled():
        print("ACCEPTANCE 6 (hyperbolic splittings, sublattice, Eichler maps): PASS")


def test_criterion_7_kernel_lift(capsys):
    g = lifts.eta_quotient({1: 2, 11: 2}, 1100)
    nf = lifts.NewformData(g, -1, 2, 11)
    # the operator condition holds on every index up to 100
    for l in range(101):
        assert g.get(11 * l) == -(-1) * 11 ** 0 * g.get(l)
    vec, report = lifts.kernel_element(nf, 2, 2, truncation=F(1))
    assert report["condition"] and vec is not None
    scale = F(1, 121)
    nonzero = 0
    for (c, m), v in vec.items():
        if any(c):
            assert v == -scale * g.get(11 * m)
        else:
            assert v == g.get(m) - scale * g.get(11 * m)
        nonzero += 1
    assert nonzero > 0
    assert vec.get(vec.module.zero(), 1) == F(120, 121)
    with capsys.disabled():
        print("ACCEPTANCE 7 (level-11 kernel lift, condition to q^100): PASS")


@pytest.mark.parametrize("p, kappa, eps, components", [(2, 8, 1, 16), (3, 6, -1, 81),
                                                       (5, 4, 1, 625)])
def test_criterion_7_small_prime_kernel_lifts(capsys, p, kappa, eps, components):
    # eta(tau)^kappa eta(p tau)^kappa, with kappa (p + 1) = 24
    g = lifts.eta_quotient({1: kappa, p: kappa}, p * 100)
    nf = lifts.NewformData(g, eps, kappa, p)
    for l in range(101):
        assert g.get(p * l) == -eps * p ** (kappa // 2 - 1) * g.get(l)
    vec, report = lifts.kernel_element(nf, 2, kappa, truncation=F(2))
    assert report["condition"]
    scale = F(1, p ** ((kappa + 2) // 2))
    nonzero = 0
    for (c, m), v in vec.items():
        if any(c):
            assert v == eps * scale * g.get(p * m)
        else:
            assert v == g.get(m) + eps * scale * g.get(p * m)
        nonzero += 1
    assert nonzero > 0
    assert vec.get(vec.module.zero(), 1) == 1 - F(1, p * p)
    assert len(vec.support()) == components
    code = cli.main(["lifts", "kernel", "--p", str(p), "--kappa", str(kappa),
                     "--eta", "1,1:%d,%d:%d" % (kappa, p, kappa)])
    assert code == 0
    assert capsys.readouterr().out == (
        "eps: %d\ncondition: PASS\nnonzero_witness: mu=(0,0,0,0) m=1 coeff=%s\n"
        "components: %d\n" % (eps, 1 - F(1, p * p), components))
    with capsys.disabled():
        print("ACCEPTANCE 7 (level-%d kernel lift, condition to q^100): PASS" % p)


def test_criterion_8_special_function(capsys):
    for kappa in (1.5, 2.0, 2.5, 4.0):
        r = specfun.v_kappa(kappa, 0, 0)
        want = math.gamma(kappa - 1) * math.sqrt(math.pi)
        assert abs(r.value - want) <= 1e-10 * want
    top = specfun.v_kappa(2.5, 0, 0).value
    grid = [(-2.0 + 0.2 * i) for i in range(21)]
    for a in grid:
        for b in grid:
            v = specfun.v_kappa(2.5, a, b).value
            assert v <= top + 1e-12
            assert v == specfun.v_kappa(2.5, -a, b).value
            assert v == specfun.v_kappa(2.5, a, -b).value
    with capsys.disabled():
        print("ACCEPTANCE 8 (special function: closed form, symmetry, domination): PASS")
