import random
import re
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

from discforms import cyclo, dims, fqm, lifts, qseries
from discforms._intmat import divisors, factorization, is_prime, signature_pair
from discforms.errors import PreconditionError
from helpers import (bilinear_value_reference, block, closure_reference, degenerate_reference,
                     fqm_from_gram_reference, q_value_reference, random_even_gram, random_module,
                     un, validate_reference)
from test_lattice import LEVEL_GRAMS


class TestFromGram:
    def test_a1(self):
        a = fqm.fqm_from_gram([[2]])
        assert a.orders == (2,)
        assert a.q_values == (F(1, 4),)

    def test_hyperbolic(self):
        for n in (2, 3, 5, 12):
            assert fqm.fqm_from_gram(un(n)) == fqm.hyperbolic_module(n)

    def test_z4_un_u_block(self):
        # Smith form of [[4]] + U(N) + U: disc group Z/4 + (Z/N)^2 of order 4N^2
        for n in (3, 5):
            a = fqm.fqm_from_gram(block([[4]], un(n), un(1)))
            assert a.order() == 4 * n * n
            assert a.elementary_divisors() == (n, 4 * n)

    def test_pairings_from_integer_matrices_match_fraction_sums(self):
        rng = random.Random(31)
        grams = list(LEVEL_GRAMS) + [random_even_gram(rng, max_rank=5, max_det=400)
                                     for _ in range(40)]
        for g in grams:
            a, _to_coords, gens = fqm.fqm_from_gram_with_maps(g)
            ref, ref_gens = fqm_from_gram_reference(g)
            assert a.describe() == ref.describe() and a == ref, g
            assert gens == ref_gens, g

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionError):
            fqm.fqm_from_gram([[2, 1], [1, 2], [0, 0]])
        with pytest.raises(PreconditionError):
            fqm.fqm_from_gram([[1]])
        with pytest.raises(PreconditionError):
            fqm.fqm_from_gram([[2, 2], [2, 2]])


def test_construction_bounds():
    # checked before the radical is computed, and so before any invariant is read
    n = fqm.LEVEL_BOUND + 1  # odd, so Q = 1/n has level n
    with pytest.raises(PreconditionError, match="level %d exceeds the bound %d" % (n, n - 1)):
        fqm.cyclic_module(n, F(1, n))
    with pytest.raises(PreconditionError, match="level 4000000 exceeds"):
        fqm.fqm_from_gram([[2000000]])
    with pytest.raises(PreconditionError, match="order 2000000000 exceeds the bound %d"
                       % fqm.ORDER_BOUND):
        fqm.fqm_from_gram([[2000000000]])
    # order 2*10^6 and level 4000, the largest Picard table row of interest
    assert fqm.ORDER_BOUND >= 2 * 1000 ** 2 and fqm.LEVEL_BOUND >= 4 * 1000


# (orders, q_values, bilinear, message) for each presentation check of FiniteQuadraticModule
BAD_PRESENTATIONS = {
    "zero_order": ((0,), (0,), ((0,),), "generator orders must be at least 1, not 0"),
    "short_q_values": ((2,), (), ((F(1, 2),),), "inconsistent presentation sizes"),
    "ragged_bilinear": ((2, 2), (F(1, 4), F(1, 4)), ((F(1, 2),), (0, F(1, 2))),
                        "bilinear matrix must be square"),
    "diagonal_not_2q": ((2,), (F(1, 4),), ((0,),),
                        "diagonal pairing must equal 2*Q on generators"),
    "q_order": ((2,), (F(1, 3),), ((F(2, 3),),), "Q value incompatible with generator order"),
    "asymmetric": ((2, 2), (0, 0), ((0, F(1, 2)), (0, 0)), "bilinear matrix must be symmetric"),
    "pairing_order": ((2, 2), (0, 0), ((0, F(1, 3)), (F(1, 3), 0)),
                      "pairing incompatible with generator order"),
    "degenerate": ((2,), (0,), ((0,),), "quadratic form is degenerate"),
}


@pytest.mark.parametrize("case", sorted(BAD_PRESENTATIONS))
def test_presentation_checks(case):
    orders, q_values, bilinear, message = BAD_PRESENTATIONS[case]
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        fqm.FiniteQuadraticModule(orders, q_values, bilinear)


def _random_presentation(rng):
    """Orders, Q values and pairings that pass every shape check of the constructor."""
    orders = [rng.choice((2, 3, 4, 5, 6, 8, 9)) for _ in range(rng.randint(1, 3))]
    q_values = [F(rng.randrange(0, 2 * d, 1 if d % 2 == 0 else 2), 2 * d) for d in orders]
    bilinear = [[F(0)] * len(orders) for _ in orders]
    for i, di in enumerate(orders):
        bilinear[i][i] = 2 * q_values[i] % 1
        for j in range(i):
            g = gcd(di, orders[j])
            bilinear[i][j] = bilinear[j][i] = F(rng.randrange(g), g)
    return orders, q_values, bilinear


def test_radical_check_agrees_with_gauss_sum_oracle():
    rng = random.Random(12)
    degenerate = 0
    for _ in range(520):
        orders, q_values, bilinear = _random_presentation(rng)
        expected = degenerate_reference(orders, q_values, bilinear)
        try:
            fqm.FiniteQuadraticModule(orders, q_values, bilinear)
            refused = False
        except PreconditionError as exc:
            assert str(exc) == "quadratic form is degenerate", (orders, q_values, bilinear)
            refused = True
        assert refused == expected, (orders, q_values, bilinear)
        degenerate += refused
    assert degenerate >= 150


def _corrupted(rng, orders, q_values, bilinear):
    """The presentation with one to three seeded defects; some leave it valid."""
    orders, q_values = list(orders), list(q_values)
    bilinear = [list(row) for row in bilinear]
    r = len(orders)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(r), rng.randrange(r)
        kind = rng.randrange(8)
        if kind == 0:  # a Q value moved, perhaps off its order or off the diagonal
            q_values[i] += F(rng.randint(1, 5), rng.choice((2, 3, 4, 8)) * orders[i])
        elif kind == 1:  # one side of a pairing moved
            bilinear[i][j] += F(rng.randint(1, 3), rng.choice((2, 3, 4, 6)))
        elif kind == 2:  # both sides moved, perhaps off the generator orders
            bilinear[i][j] = bilinear[j][i] = bilinear[i][j] + F(1, rng.choice((2, 3, 4, 9)))
        elif kind == 3:  # an order changed
            orders[i] = rng.choice((1, 2, 3, 4, 6, 8, 12))
        elif kind == 4:  # representatives outside [0, 1): the same presentation
            q_values[i] += rng.randint(-3, 3)
            bilinear[i][j] -= rng.randint(-2, 2)
        elif kind == 5:  # a diagonal pairing replaced
            bilinear[i][i] = F(rng.randrange(2 * orders[i]), 2 * orders[i])
        elif kind == 6:  # a Q value dropped, the last defect
            q_values.pop()
            break
        else:  # a row shortened, the last defect
            bilinear[i].pop()
            break
    return orders, q_values, bilinear


def _outcome(check, *presentation):
    try:
        check(*presentation)
    except PreconditionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", range(4))
def test_integer_form_checks_match_fraction_reference(seed):
    rng = random.Random(4100 + seed)
    presentations = [_random_presentation(rng) for _ in range(40)]
    for _ in range(10):
        a = random_module(rng, max_order=60)
        presentations.append((a.orders, a.q_values, a.bilinear))
    refused = Counter()
    for p in presentations:
        for q in (p, _corrupted(rng, *p), _corrupted(rng, *p)):
            want = _outcome(validate_reference, *q)
            assert _outcome(fqm.FiniteQuadraticModule, *q) == want, q
            refused[want] += 1
    # every check refuses something: sizes, squareness, the four value checks and
    # degeneracy; None counts the accepted presentations
    assert len(refused) == 8, refused


def test_construction_builds_no_cyclotomic_number(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("an invariant was built during construction")

    monkeypatch.setattr(fqm.FiniteQuadraticModule, "_count_q_values", refuse)
    monkeypatch.setattr(cyclo, "gauss_sum", refuse)
    monkeypatch.setattr(cyclo.CyclotomicNumber, "__init__", refuse)
    monkeypatch.setattr(cyclo.CyclotomicNumber, "_normalized", classmethod(refuse))
    a = fqm.fqm_from_gram(block([[2, 1], [1, 2]], un(3), [[4, 1], [1, 6]]))
    assert a.order() == 3 * 9 * 23
    b = fqm.direct_sum(a, fqm.hyperbolic_module(4))
    assert fqm.negate(fqm.negate(b)) == b
    h = fqm.Subgroup.from_generators(b, [b.element((0,) * a.rank + (1, 0))])
    assert fqm.subquotient(b, h)[0].order() == a.order()
    assert lifts.lift_module(11, 2).order() == 11 ** 4
    assert dims.table_row_module(990).order() == 2 * 990 ** 2
    assert fqm.hyperbolic_module(2000).level() == 2000


def test_bilinear_value_matches_fraction_sums():
    rng = random.Random(47)
    for _ in range(12):
        a = random_module(rng)
        elts = a.elements()
        for x in elts:
            for y in elts:
                assert a.bilinear_value(x, y) == bilinear_value_reference(a, x, y), (a, x, y)


def test_direct_sum_identity_and_signature():
    a = fqm.hyperbolic_module(4)
    assert fqm.direct_sum(a, fqm.trivial_module()) == a
    b = fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.cyclic_module(2, F(3, 4)))
    assert b.signature() == 0
    assert b.order() == 4


def test_direct_sum_matches_block_gram_structurally():
    # same invariant factors, Q-value multiset, and Gauss sums
    s = fqm.direct_sum(fqm.hyperbolic_module(5), fqm.fqm_from_gram([[4]]))
    g = fqm.fqm_from_gram(block(un(5), [[4]]))
    assert s.elementary_divisors() == g.elementary_divisors()
    qs1 = sorted(x.q() for x in s.elements())
    qs2 = sorted(x.q() for x in g.elements())
    assert qs1 == qs2
    for c in (1, 2, 3):
        assert cyclo.gauss_sum(s, c) == cyclo.gauss_sum(g, c)


def test_negate():
    assert fqm.negate(fqm.trivial_module()) == fqm.trivial_module()
    a = fqm.cyclic_module(2, F(1, 4))
    n = fqm.negate(a)
    assert n.q_values == (F(3, 4),)
    assert n.signature() == 7
    assert fqm.negate(n) == a


class TestMilgram:
    def test_a1_signature(self):
        assert fqm.milgram_signature(fqm.cyclic_module(2, F(1, 4))) == 1

    def test_rescaled_unimodular_signature_vanishes(self):
        # II_{2,2}(p) has discriminant form of signature 0 mod 8
        for p in (3, 5):
            a = fqm.direct_sum(fqm.hyperbolic_module(p), fqm.hyperbolic_module(p))
            assert a.signature() == 0

    def test_table_lattice_signature(self):
        a = fqm.fqm_from_gram(block([[4]], un(7), un(1)))
        assert a.signature() == 1  # sig(3,2) = 1 mod 8
        b = fqm.fqm_from_gram(block([[2]], un(7), un(1)))
        assert b.signature() == 1

    def test_signature_matches_gram_signature_sample(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_even_gram(rng, max_rank=4, max_det=300)
            bp, bm = signature_pair(g)
            assert fqm.fqm_from_gram(g).signature() == (bp - bm) % 8


class TestIsotropicSubgroups:
    def test_trivial(self):
        subs = fqm.isotropic_subgroups(fqm.trivial_module(), 1)
        assert len(subs) == 1 and subs[0].order == 1

    def test_hyperbolic_lines_against_brute_force(self):
        # independent oracle: enumerate all cyclic subgroups of (Z/p)^2 directly
        for p in (3, 5, 7):
            a = fqm.hyperbolic_module(p)
            lines = set()
            for x, y in product(range(p), repeat=2):
                if (x, y) == (0, 0):
                    continue
                sub = frozenset(((k * x) % p, (k * y) % p) for k in range(p))
                if all(a.q_value(a.element(c)) == 0 for c in sub):
                    lines.add(sub)
            found = fqm.isotropic_subgroups(a, p)
            assert len(found) == len(lines) == 2

    def test_anisotropic_has_none(self):
        assert fqm.isotropic_subgroups(fqm.cyclic_module(2, F(1, 4)), 2) == []

    def test_deterministic_order(self):
        a = fqm.hyperbolic_module(4)
        one = fqm.isotropic_subgroups(a, 2)
        two = fqm.isotropic_subgroups(a, 2)
        assert [h.generators for h in one] == [h.generators for h in two]


class TestOrthogonalComplement:
    def test_zero_subgroup(self):
        a = fqm.hyperbolic_module(3)
        z = fqm.Subgroup(a, [a.zero()])
        assert fqm.orthogonal_complement(a, z).order == a.order()

    def test_hyperbolic_line(self):
        n = 6
        a = fqm.hyperbolic_module(n)
        e = a.element((1, 0))
        h = fqm.Subgroup.from_generators(a, (e,))
        perp = fqm.orthogonal_complement(a, h)
        assert set(x.coords for x in perp.elements) == {(x, 0) for x in range(n)}

    def test_product_law_and_involution(self):
        rng = random.Random(8)
        for _ in range(50):
            a = random_module(rng, max_order=48)
            gens = rng.sample(a.elements(), k=min(2, a.order()))
            h = fqm.Subgroup.from_generators(a, tuple(gens))
            perp = fqm.orthogonal_complement(a, h)
            assert h.order * perp.order == a.order()
            assert fqm.orthogonal_complement(a, perp) == h


class TestSubquotient:
    def test_trivial_subgroup_is_identity(self):
        a = fqm.hyperbolic_module(4)
        b, proj, sect = fqm.subquotient(a, fqm.Subgroup(a, [a.zero()]))
        assert b is a
        x = a.element((1, 2))
        assert proj(x) == x and sect(x) == x

    def test_hyperbolic_line_gives_trivial(self):
        a = fqm.hyperbolic_module(5)
        h = fqm.isotropic_subgroups(a, 5)[0]
        b, _p, _s = fqm.subquotient(a, h)
        assert b.order() == 1

    def test_projection_section_and_q(self):
        a = fqm.hyperbolic_module(12)
        e = a.element((0, 1))
        h = fqm.cyclic_subgroup_id(a, e, 2)
        b, proj, sect = fqm.subquotient(a, h)
        assert a.order() == b.order() * h.order ** 2
        for x in b.elements():
            assert proj(sect(x)) == x
            assert sect(x).q() == x.q()

    def test_signature_preserved_random(self):
        rng = random.Random(17)
        done = 0
        while done < 20:
            a = random_module(rng, max_order=60)
            candidates = []
            for n in (2, 3):
                if a.order() % n == 0:
                    candidates += fqm.isotropic_subgroups(a, n)
            if not candidates:
                continue
            h = rng.choice(candidates)
            b, _p, _s = fqm.subquotient(a, h)
            assert b.signature() == a.signature()
            done += 1

    def test_nested_subquotients_bookkeeping(self):
        a = fqm.hyperbolic_module(4)
        e = a.element((0, 1))
        h2 = fqm.cyclic_subgroup_id(a, e, 2)
        h4 = fqm.cyclic_subgroup_id(a, e, 4)
        b1, proj1, _s1 = fqm.subquotient(a, h2)
        # image of H4 inside the first subquotient
        imgs = [proj1(x) for x in h4.elements]
        h_inner = fqm.Subgroup(b1, imgs)
        b2, _p2, _s2 = fqm.subquotient(b1, h_inner)
        assert b2.order() * h4.order ** 2 == a.order()

    def test_non_isotropic_rejected(self):
        a = fqm.cyclic_module(2, F(1, 4))
        h = fqm.Subgroup.from_generators(a, (a.element((1,)),))
        with pytest.raises(PreconditionError):
            fqm.subquotient(a, h)


class TestContentFiltration:
    def test_content_examples(self):
        a = fqm.hyperbolic_module(12)
        e = a.element((0, 1))
        assert fqm.content(a, e, a.zero()) == 12
        # N(e, lam) = 8 at lam = (8, 0): gcd(8, 12) = 4
        assert fqm.content(a, e, a.element((8, 0))) == 4

    def test_membership_equivalence(self):
        a = fqm.hyperbolic_module(12)
        e = a.element((0, 1))
        rng = random.Random(3)
        for d in (1, 2, 3, 4, 6, 12):
            i_d = fqm.cyclic_subgroup_id(a, e, d)
            perp = fqm.orthogonal_complement(a, i_d)
            for _ in range(20):
                lam = rng.choice(a.elements())
                assert (fqm.content(a, e, lam) % d == 0) == perp.contains(lam)

    def test_cyclic_id_orders(self):
        a = fqm.hyperbolic_module(12)
        e = a.element((0, 1))
        assert fqm.cyclic_subgroup_id(a, e, 1).order == 1
        assert fqm.cyclic_subgroup_id(a, e, 12).elements == \
            fqm.Subgroup.from_generators(a, (e,)).elements
        for d in (1, 2, 3, 4, 6, 12):
            assert fqm.cyclic_subgroup_id(a, e, d).order == d
        with pytest.raises(PreconditionError):
            fqm.cyclic_subgroup_id(a, e, 5)

    def test_id_nesting(self):
        a = fqm.hyperbolic_module(12)
        e = a.element((0, 1))
        subs = {d: set(x.coords for x in fqm.cyclic_subgroup_id(a, e, d).elements)
                for d in (1, 2, 3, 4, 6, 12)}
        for d1 in subs:
            for d2 in subs:
                assert (subs[d1] <= subs[d2]) == (d2 % d1 == 0)


class TestPhiR:
    def test_identity(self):
        a = fqm.hyperbolic_module(7)
        ph = fqm.phi_r(a, 1)
        assert all(ph(x) == x for x in a.elements())

    def test_inverse_pair(self):
        a = fqm.hyperbolic_module(7)
        for r in range(1, 7):
            rstar = pow(r, -1, 7)
            ph = fqm.phi_r(a, r)
            ph_star = fqm.phi_r(a, rstar)
            assert all(ph(ph_star(x)) == x for x in a.elements())

    def test_q_preserved(self):
        a = fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(9))
        ph = fqm.phi_r(a, 2)
        rng = random.Random(1)
        for _ in range(25):
            x = rng.choice(a.elements())
            assert ph(x).q() == x.q()
            y = rng.choice(a.elements())
            assert ph(x).bil(ph(y)) == x.bil(y)

    def test_non_unit_rejected(self):
        with pytest.raises(PreconditionError):
            fqm.phi_r(fqm.hyperbolic_module(6), 2)


class TestNormalForm:
    def test_zero(self):
        s = fqm.MatrixModelSplit(3)
        assert s.normal_form(s.module.zero()).is_zero()

    def test_determined_by_order_and_q(self):
        s = fqm.MatrixModelSplit(3)
        a = s.module
        byclass = {}
        for mu in a.elements():
            nf = s.normal_form(mu)
            key = (mu.order(), mu.q())
            byclass.setdefault(key, set()).add(nf.coords)
        for key, forms in byclass.items():
            assert len(forms) == 1, key

    def test_q_preserved(self):
        s = fqm.MatrixModelSplit(5)
        for mu in s.module.elements()[:60]:
            assert s.normal_form(mu).q() == mu.q()

    def test_rejects_non_prime(self):
        with pytest.raises(PreconditionError):
            fqm.MatrixModelSplit(6)
        with pytest.raises(PreconditionError):
            fqm.MatrixModelSplit(3, fqm.cyclic_module(2, F(1, 4)))


def test_is_prime_matches_brute_force():
    for n in range(-3, 501):
        assert is_prime(n) == (n >= 2 and all(n % k for k in range(2, n))), n


def test_factorization_and_divisors_match_brute_force():
    # divisors by a loop up to n, prime factors by repeated division by the least divisor > 1
    for n in range(1, 3001):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == divs, n
        factors, m = [], n
        while m > 1:
            p = next(d for d in range(2, m + 1) if m % d == 0)
            factors.append(p)
            m //= p
        assert factorization(n) == sorted((p, factors.count(p)) for p in set(factors)), n
        assert qseries._omega(n) == len(factors), n


def test_element_arithmetic():
    a = fqm.hyperbolic_module(4)
    x = a.element((1, 3))
    assert (-x).coords == (3, 1)
    assert (x + x).coords == (2, 2)
    assert (3 * x).coords == (3, 1)
    assert x.order() == 4


def test_describe_format():
    text = fqm.hyperbolic_module(5).describe()
    lines = text.splitlines()
    assert lines[0] == "divisors: 5,5"
    assert lines[1] == "Q(g1)=0/1"
    assert "1/5" in lines[3]


def _automorphism_refusal_reference(module, matrix):
    """The refusal of fqm.Automorphism(module, matrix), or None, with Q and the
    pairing of the generator images summed in Fractions."""
    r, orders = module.rank, module.orders
    if any(matrix[i][j] * orders[j] % orders[i] for i in range(r) for j in range(r)):
        return "matrix does not define an endomorphism"
    imgs = [module.element(tuple(row[k] for row in matrix)) for k in range(r)]
    for i in range(r):
        if q_value_reference(module, imgs[i]) != module.q_values[i]:
            return "map does not preserve the quadratic form"
        for j in range(r):
            if bilinear_value_reference(module, imgs[i], imgs[j]) != module.bilinear[i][j]:
                return "map does not preserve the pairing"
    if len(closure_reference(module, imgs)) != module.order():
        return "map is not bijective"
    return None


def _candidate_matrices(rng, module):
    """Endomorphisms, signed permutations of equal-order generators, unit scalings
    u with u^2 = 1 mod the level (these preserve the form), and raw integer matrices."""
    r, orders, n = module.rank, module.orders, module.level()
    yield [[rng.randrange(-n, n) for _j in range(r)] for _i in range(r)]
    yield [[rng.randrange(-3, 4) * (orders[i] // gcd(orders[i], orders[j])) for j in range(r)]
           for i in range(r)]
    units = [u for u in range(1, n + 1) if u * u % n == 1]
    u = rng.choice(units)
    yield [[u * (i == j) for j in range(r)] for i in range(r)]
    perm = list(range(r))
    for _ in range(r):
        i, j = rng.randrange(r), rng.randrange(r)
        if orders[i] == orders[j]:
            perm[i], perm[j] = perm[j], perm[i]
    signs = [rng.choice((1, -1, u)) for _ in range(r)]
    yield [[signs[j] * (perm[j] == i) for j in range(r)] for i in range(r)]


def test_automorphism_checks_the_form_in_integers():
    """Automorphism accepts and refuses exactly as the Fraction oracles decide,
    with the refusal message of the first failing check."""
    rng = random.Random(2019)
    seen = Counter()
    for _ in range(150):
        module = random_module(rng, max_order=60)
        for matrix in _candidate_matrices(rng, module):
            want = _automorphism_refusal_reference(module, matrix)
            seen[want] += 1
            if want is None:
                aut = fqm.Automorphism(module, matrix)
                assert all(aut(x).q() == x.q() for x in module.elements())
            else:
                with pytest.raises(PreconditionError, match="^%s$" % re.escape(want)):
                    fqm.Automorphism(module, matrix)
    assert min(seen[m] for m in (None, "matrix does not define an endomorphism",
                                 "map does not preserve the quadratic form",
                                 "map does not preserve the pairing")) >= 20, seen


def test_q_value_shares_one_fraction_per_value():
    a = fqm.direct_sum(fqm.hyperbolic_module(6), fqm.cyclic_module(4, F(1, 8)))
    first = {}
    for x in a.elements():
        q = a.q_value(x)
        assert q == q_value_reference(a, x) and type(q) is F
        assert first.setdefault(q, q) is q
    assert x.q() is a.q_value(a.element(x.coords))
    assert len(first) == len({a.nq_value(x) for x in a.elements()}) == 12
