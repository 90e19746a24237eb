import random
from fractions import Fraction as F
from math import gcd

import pytest

from discforms import fqm, lattice
from discforms.errors import PreconditionError, SearchExhausted
from helpers import random_even_gram


def un(n):
    return [[0, n], [n, 0]]


def block(*mats):
    n = sum(len(m) for m in mats)
    out = [[0] * n for _ in range(n)]
    o = 0
    for m in mats:
        for i in range(len(m)):
            for j in range(len(m)):
                out[o + i][o + j] = m[i][j]
        o += len(m)
    return out


def test_disc_module_examples():
    assert lattice.EvenLattice(un(1)).disc()[0].order() == 1
    a, _ = lattice.EvenLattice(un(7)).disc()
    assert a == fqm.hyperbolic_module(7)
    b, _ = lattice.EvenLattice(block([[4]], un(5), un(1))).disc()
    assert b.order() == 100
    assert b.elementary_divisors() == (5, 20)


def test_disc_projection_is_surjective_with_kernel_L():
    lat = lattice.EvenLattice(block([[2]], un(3)))
    module, to = lat.disc()
    seen = set()
    # dual vectors: combinations of the generator representatives
    for mu in module.elements():
        v = lat.coset_representative(mu)
        assert lat.in_dual(v)
        assert to(v) == mu
        seen.add(mu.coords)
    assert len(seen) == module.order()
    # lattice vectors project to zero
    assert to([1, 0, 0]).is_zero()
    assert to([0, 2, -1]).is_zero()


def test_find_isotropic_with_ideal():
    ell = lattice.find_isotropic_with_ideal(lattice.EvenLattice(un(5)), 5, 2)
    assert lattice.EvenLattice(un(5)).q_value(ell) == 0
    ell_u = lattice.find_isotropic_with_ideal(lattice.EvenLattice(un(1)), 1, 2)
    assert lattice.EvenLattice(un(1)).q_value(ell_u) == 0
    with pytest.raises(SearchExhausted):
        lattice.find_isotropic_with_ideal(lattice.EvenLattice([[2]]), 1, 3)


def test_find_isotropic_random_verification():
    rng = random.Random(14)
    for n in (2, 3, 4):
        lat = lattice.EvenLattice(block([[2 * rng.randint(1, 3)]], un(n)))
        try:
            v = lattice.find_isotropic_with_ideal(lat, n, 2)
        except SearchExhausted:
            continue
        assert lat.q_value(v) == 0
        ideal = 0
        for p in lat.pairings(v):
            ideal = gcd(ideal, int(p))
        assert ideal == n


class TestSplitUN:
    def test_pure_hyperbolic(self):
        lat = lattice.EvenLattice(un(5))
        ell = [1, 0]
        et, k, rows = lattice.split_UN(lat, ell)
        assert k.rank == 0
        assert lat.bilinear(et, ell) == 5

    def test_definite_block_preserved(self):
        # [[4]] has level 8; 8 | N keeps the total level at N
        lat = lattice.EvenLattice(block([[4]], un(8)))
        assert lat.level() == 8
        et, k, rows = lattice.split_UN(lat, [0, 1, 0])
        assert k.gram == ((4,),)

    def test_block_gram_and_integrality_on_level_n_instances(self):
        cases = []
        for d_gram, d_level in ((None, 1), ([[2]], 4), ([[4]], 8),
                                ([[2, 1], [1, 2]], 3), ([[2, 0], [0, 2]], 4)):
            for mult in (1, 2, 3):
                n = d_level * mult
                g = block(d_gram, un(n)) if d_gram else un(n)
                cases.append((g, n, len(d_gram) if d_gram else 0))
        assert len(cases) >= 15
        for g, n, off in cases:
            lat = lattice.EvenLattice(g)
            assert lat.level() == n
            ell = [0] * off + [1, 0]
            et, k, rows = lattice.split_UN(lat, ell)
            assert all(isinstance(x, int) for x in et)
            new_gram = [[lat.bilinear(rows[i], rows[j]) for j in range(lat.rank)]
                        for i in range(lat.rank)]
            m = lat.rank - 2
            assert new_gram[m][m + 1] == n and new_gram[m][m] == 0
            for i in range(m):
                assert new_gram[i][m] == 0 and new_gram[i][m + 1] == 0

    def test_wrong_ideal_rejected(self):
        lat = lattice.EvenLattice(block([[2]], un(7)))  # level 28
        with pytest.raises(PreconditionError):
            lattice.split_UN(lat, [0, 1, 0])


class TestSublatticeK0:
    def test_full_ideal_is_identity_index(self):
        k0, basis, t = lattice.sublattice_K0(lattice.EvenLattice(un(5)), [1, 0])
        assert t == 1
        k0u, _b, tu = lattice.sublattice_K0(lattice.EvenLattice(un(1)), [1, 0])
        assert tu == 1

    def test_level_preserved_and_splits(self):
        lat = lattice.EvenLattice(block([[2]], un(1)))  # level 4, ell ideal 1
        ell = [0, 1, 0]
        k0, basis, t = lattice.sublattice_K0(lat, ell)
        assert t == 4 and k0.level() == 4
        y = lattice.express_in_basis(basis, ell)
        pair = [int(p) for p in k0.pairings(y)]
        ideal = 0
        for p in pair:
            ideal = gcd(ideal, p)
        assert ideal == 4
        _et, kk, _rows = lattice.split_UN(k0, y)
        assert kk.rank == k0.rank - 2


class TestEichler:
    def setup_method(self):
        self.lat = lattice.EvenLattice(block(un(1), un(1)))

    def test_zero_v_is_identity(self):
        assert lattice.eichler(self.lat, [1, 0, 0, 0], [0, 0, 0, 0]).is_identity()

    def test_lattice_vectors_act_trivially_on_disc(self):
        lat = lattice.EvenLattice(block([[2]], un(3), un(1)))
        u = [0, 1, 0, 0, 0]
        v = [0, 0, 0, 1, 0]
        assert lat.bilinear(u, v) == 0
        e = lattice.eichler(lat, u, v)
        assert e.preserves_q and e.preserves_lattice and e.in_discriminant_kernel

    def test_inverse_pair(self):
        u = [1, 0, 0, 0]
        v = [0, 0, 2, -1]
        if self.lat.bilinear(u, v) != 0:
            v = [0, 0, 0, 1]
        e1 = lattice.eichler(self.lat, u, v)
        e2 = lattice.eichler(self.lat, u, [-x for x in v])
        assert e1.compose(e2).is_identity()

    def test_action_on_orthogonal_vectors(self):
        u = [1, 0, 0, 0]
        v = [0, 0, 1, 0]
        e = lattice.eichler(self.lat, u, v)
        lam = [0, 0, 0, 1]
        assert self.lat.bilinear(lam, u) == 0
        pairing = self.lat.bilinear(lam, v)
        assert e(lam) == [F(lam[i]) + pairing * u[i] for i in range(4)]

    def test_dual_vector_variant_preserves_lattice(self):
        # level-N vector u with dual v orthogonal to it
        lat = lattice.EvenLattice(un(3))
        u = [1, 0]
        v = [F(1, 3), 0]  # dual vector, (u, v) = 0
        e = lattice.eichler(lat, u, v)
        assert e.preserves_q and e.preserves_lattice

    def test_precondition_failures(self):
        with pytest.raises(PreconditionError):
            lattice.eichler(self.lat, [1, 1, 0, 0], [0, 0, 1, 0])  # u not isotropic
        with pytest.raises(PreconditionError):
            lattice.eichler(self.lat, [1, 0, 0, 0], [0, 1, 0, 0])  # (u,v) != 0


class TestCountNormVectors:
    def test_congruence_vanishing(self):
        lat = lattice.EvenLattice([[2]])
        count, exact = lattice.count_norm_vectors(lat, F(1, 3), [F(1, 2)])
        assert count == 0 and exact

    def test_rank_one(self):
        lat = lattice.EvenLattice([[2]])
        assert lattice.count_norm_vectors(lat, 1, [0]) == (2, True)
        assert lattice.count_norm_vectors(lat, F(1, 4), [F(1, 2)]) == (2, True)
        assert lattice.count_norm_vectors(lat, 3, [0]) == (0, True)

    def test_root_counts(self):
        a2 = lattice.EvenLattice([[2, 1], [1, 2]])
        assert lattice.count_norm_vectors(a2, 1, [0, 0]) == (6, True)
        d4ish = lattice.EvenLattice(block([[2]], [[2]]))
        assert lattice.count_norm_vectors(d4ish, 1, [0, 0]) == (4, True)

    def test_negative_norm_has_no_vectors(self):
        # the definite enumeration took the square root of the negative norm
        a2 = lattice.EvenLattice([[2, 1], [1, 2]])
        assert lattice.count_norm_vectors(a2, -2, [0, 0]) == (0, True)
        lat = lattice.EvenLattice([[2]])
        assert lattice.count_norm_vectors(lat, F(-3, 4), [F(1, 2)]) == (0, True)

    def test_symmetry_under_negation(self):
        rng = random.Random(44)
        checked = 0
        while checked < 10:
            g = random_even_gram(rng, max_rank=3, max_det=200, entry=2)
            lat = lattice.EvenLattice(g)
            bp, bm = lat.signature()
            if bm:
                continue
            module, _to = lat.disc()
            mu = rng.choice(module.elements())
            vec = lat.coset_representative(mu)
            for m in (mu.q(), mu.q() + 1, mu.q() + 2):
                c1 = lattice.count_norm_vectors(lat, m, vec)
                c2 = lattice.count_norm_vectors(lat, m, [-x for x in vec])
                assert c1 == c2
            checked += 1

    def test_indefinite_flagged_incomplete(self):
        lat = lattice.EvenLattice(un(1))
        count, exact = lattice.count_norm_vectors(lat, 1, [0, 0], search_bound=3)
        assert not exact
        assert count == 2  # xy = 1 has only (1,1) and (-1,-1) in any box
        count6, _ = lattice.count_norm_vectors(lat, 6, [0, 0], search_bound=3)
        assert count6 == 4  # (1,6) style pairs outside the box are not seen


class TestRepresentNormSplit:
    def setup_method(self):
        a2 = [[2, 1], [1, 2]]
        self.d = block(a2, a2, a2)
        self.lam0 = [1, 0, 1, 0, 1, 0, 1, 0, 0, 1]
        self.lat = lattice.EvenLattice(lattice.prime_split_lattice(self.d, 3))

    def test_construction(self):
        m0 = self.lat.q_value(self.lam0)
        assert m0 == 6
        for m in (m0 - 3, m0, 0, -6):
            lam = lattice.represent_norm_split(self.d, 3, m, self.lam0)
            assert self.lat.q_value(lam) == m
            pair = [int(x) for x in self.lat.pairings(lam)]
            g = 0
            for x in pair:
                g = gcd(g, x)
            assert g == 1
            assert not all(x % 3 == 0 for x in pair)

    def test_bad_witness_rejected(self):
        with pytest.raises(PreconditionError):
            lattice.represent_norm_split(self.d, 3, 0, [0] * 6 + [1, 0, 0, 1])


def test_lattice_map_q_flag_exact():
    lat = lattice.EvenLattice(block(un(1), un(1)))
    e = lattice.eichler(lat, [1, 0, 0, 0], [0, 0, 1, 0])
    assert e.preserves_q
    bad = lattice.LatticeMap(lat, [[2, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not bad.preserves_q


def test_fqm_and_lattice_reject_bad_grams_alike():
    bad = ([[F(5, 2)]], [[2, F(1, 2)], [F(1, 2), 2]], [[2, 1], [1, 2], [0, 0]],
           [[2, 0], []], [[1]], [[2, 1], [0, 2]], [[2, 2], [2, 2]])
    for gram in bad:
        with pytest.raises(PreconditionError) as from_fqm:
            fqm.fqm_from_gram(gram)
        with pytest.raises(PreconditionError) as from_lattice:
            lattice.EvenLattice(gram)
        assert str(from_fqm.value) == str(from_lattice.value), gram
    with pytest.raises(PreconditionError, match="integers"):
        lattice.EvenLattice([[F(5, 2)]])


def test_gcd_chain_solutions_are_stable():
    # The unit and scaled pairing solvers pick different valid solutions, and
    # the choice shows in `discforms lattice split` output.
    lat = lattice.EvenLattice([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 6, 3], [0, 0, 3, 0]])
    assert lattice.split_UN(lat, [-2, -1, -1, 2])[0] == [0, 0, 1, -1]
    lat = lattice.EvenLattice([[16, 4, 24], [4, 0, 8], [24, 8, 36]])
    _k0, basis, _t = lattice.sublattice_K0(lat, [2, 1, -2])
    assert basis == [[0, -2, 1], [-2, 3, 0], [2, -4, 0]]


def test_disc_of_direct_sum_matches_sum_of_discs():
    g1, g2 = [[2]], un(3)
    a = lattice.EvenLattice(block(g1, g2)).disc()[0]
    b = fqm.direct_sum(lattice.EvenLattice(g1).disc()[0],
                       lattice.EvenLattice(g2).disc()[0])
    assert a.elementary_divisors() == b.elementary_divisors()
    assert sorted(x.q() for x in a.elements()) == sorted(x.q() for x in b.elements())


# The Gram matrices of the tests above.
LEVEL_GRAMS = (
    [[2]], [[4]], [[2, 1], [1, 2]], un(3), un(6), block([[4]], un(5), un(1)),
    block([[2]], un(3)), block([[4]], un(8)), block([[2]], un(7)), block([[2]], un(1)),
    block([[2]], un(3), un(1)), block([[2]], [[2]]), block([[2, 1], [1, 2]], un(6)),
    block([[6]], un(5)), [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 6, 3], [0, 0, 3, 0]],
    [[16, 4, 24], [4, 0, 8], [24, 8, 36]],
)


def test_level_from_inverse_gram_matches_discriminant_module():
    rng = random.Random(2024)
    grams = list(LEVEL_GRAMS) + [random_even_gram(rng, max_rank=5, max_det=400)
                                 for _ in range(30)]
    for g in grams:
        assert lattice.EvenLattice(g).level() == fqm.fqm_from_gram(g).level(), g


def test_sublattice_k0_never_materializes_elements(monkeypatch):
    # the sublattice has a discriminant group of order |det| * 111^2
    def refuse(self):
        raise AssertionError("elements() materialized")

    monkeypatch.setattr(fqm.FiniteQuadraticModule, "elements", refuse)
    lat = lattice.EvenLattice([[2, 1, -2, -2], [1, -4, 2, -3], [-2, 2, -4, 3],
                               [-2, -3, 3, -2]])
    k0, _basis, t = lattice.sublattice_K0(lat, (-1, -1, 0, 0))
    assert t == 111 and k0.level() == lat.level() == 111
