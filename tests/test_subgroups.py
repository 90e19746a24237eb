"""The Hermite-form subgroup layer against the element-set oracles in helpers.py.

closure_reference, greedy_generators_reference, orthogonal_complement_reference,
isotropic_subgroups_reference and subquotient_reference are the brute-force
element-set constructions that fqm used before subgroups became Hermite forms;
subquotient_fraction_reference is the rational-inverse route that fqm.subquotient
took before it became integer algebra.
"""

import random
from fractions import Fraction as F
from math import prod

import pytest

from discforms import fqm
from discforms._intmat import hermite_rows
from discforms.errors import PreconditionError
from helpers import (block, closure_reference, greedy_generators_reference,
                     isotropic_subgroups_reference, orthogonal_complement_reference,
                     profile_module, random_module, subquotient_fraction_reference,
                     subquotient_reference, un)
from test_qseries import NEWFORM_PROFILES
from test_weil_products import BENCH_PROFILES

# The benchmark profiles (newform_roundtrip, and weil_relations up to order 48
# plus its three larger ones), then seeded random modules.
PROFILES = tuple(dict.fromkeys(NEWFORM_PROFILES + BENCH_PROFILES + (
    (("h", 7),), (("h", 5), ("c", 2)), (("h", 8), ("c", 2)))))
_rng = random.Random(606)
MODULES = [profile_module(p) for p in PROFILES] + [random_module(_rng, max_order=72)
                                                   for _ in range(25)]


def isotropic_orders(a):
    return [n for n in range(1, a.order() + 1) if a.order() % (n * n) == 0]


def coords(h):
    return tuple(x.coords for x in h.elements)


@pytest.mark.parametrize("a", MODULES, ids=repr)
def test_isotropic_subgroups_match_reference(a):
    for n in isotropic_orders(a):
        want = isotropic_subgroups_reference(a, n)
        found = fqm.isotropic_subgroups(a, n)
        assert [coords(h) for h in found] == want
        assert all(h.order == n and h.is_isotropic() for h in found)
        # the cached result comes back equal, in a new list each time
        found.append(None)
        again = fqm.isotropic_subgroups(a, n)
        assert again is not fqm.isotropic_subgroups(a, n)
        assert [coords(h) for h in again] == want


def sample_subgroups(a, rng):
    """Isotropic subgroups of every order, and subgroups generated by random elements."""
    subs = [h for n in isotropic_orders(a) for h in fqm.isotropic_subgroups(a, n)]
    for k in (1, 2, 3):
        subs.append(fqm.Subgroup.from_generators(a, rng.sample(a.elements(), k=min(k, a.order()))))
    return subs


@pytest.mark.parametrize("a", MODULES, ids=repr)
def test_subgroup_forms_against_element_sets(a):
    rng = random.Random(a.order())
    for h in sample_subgroups(a, rng):
        elts = h.elements
        assert set(coords(h)) == closure_reference(a, h.generators)
        assert list(coords(h)) == sorted(coords(h)) and len(elts) == h.order
        gens = list(h.generators)
        rng.shuffle(gens)
        same = [fqm.Subgroup(a, rng.sample(elts, k=len(elts))),
                fqm.Subgroup.from_generators(a, gens),
                fqm.Subgroup.from_generators(a, greedy_generators_reference(a, elts)),
                fqm.Subgroup.from_generators(a, list(elts))]
        for k in same:
            assert k == h and hash(k) == hash(h) and k.hnf == h.hnf
        members = set(coords(h))
        assert all(h.contains(x) == (x.coords in members) for x in a.elements())
        assert h.is_isotropic() == all(x.q() == 0 for x in elts)
        perp = fqm.orthogonal_complement(a, h)
        assert list(coords(perp)) == orthogonal_complement_reference(a, members)
        assert h.order * perp.order == a.order()


# Gram-presented modules, whose generators come from a Smith form and whose
# pairing matrices are not diagonal, each with a nontrivial isotropic subgroup
GRAMS = ([[6, 3], [3, 6]], [[8, 4], [4, 8]], [[4, 2], [2, 10]], [[2, 1], [1, 32]],
         [[4, 2, 0], [2, 4, 2], [0, 2, 4]], [[6, 3, 0], [3, 6, 0], [0, 0, 6]],
         [[2, 1, 1], [1, 4, 1], [1, 1, 16]], block([[2, 1], [1, 4]], un(2)),
         block([[2, 1], [1, 2]], [[2, 1], [1, 2]], [[6]]))
GRAM_MODULES = [fqm.fqm_from_gram(g) for g in GRAMS]


def _assert_subquotient_matches_fraction_route(a, h):
    """The same presentation of b, proj on H^perp and its refusal off it, and sect on b."""
    b, proj, sect = fqm.subquotient(a, h)
    ref, ref_proj, ref_sect = subquotient_fraction_reference(a, h)
    assert b._key == ref._key
    perp = {x.coords for x in fqm.orthogonal_complement(a, h).elements}
    for x in a.elements():
        if x.coords in perp:
            assert proj(x) == ref_proj(x)
        else:
            for p in (proj, ref_proj):
                with pytest.raises(PreconditionError,
                                   match="^element is not in the orthogonal complement$"):
                    p(x)
    assert all(sect(x) == ref_sect(x) for x in b.elements())


@pytest.mark.parametrize("a", MODULES + GRAM_MODULES, ids=repr)
def test_subquotients_match_reference(a):
    subs = [h for n in isotropic_orders(a)[1:] for h in fqm.isotropic_subgroups(a, n)]
    assert subs or a not in GRAM_MODULES
    for h in subs:
        _assert_subquotient_matches_fraction_route(a, h)
        b, proj, sect = fqm.subquotient(a, h)
        ref, ref_proj = subquotient_reference(a, set(coords(h)))
        assert b.order() == ref.order() == a.order() // h.order ** 2
        assert b.signature() == ref.signature()
        assert b.q_histogram() == ref.q_histogram()
        for x in b.elements():
            assert proj(sect(x)) == x and sect(x).q() == x.q()
        # the two projections induce the same partition of H^perp into cosets
        perp = fqm.orthogonal_complement(a, h).elements
        assert (len({(proj(y).coords, ref_proj(y).coords) for y in perp})
                == len({proj(y).coords for y in perp}) == b.order())


def test_subquotients_of_h30_match_fraction_route():
    a = fqm.hyperbolic_module(30)
    subs = [h for n in range(2, 31) if a.order() % n == 0 for h in fqm.isotropic_subgroups(a, n)]
    assert len(subs) == 26
    for h in subs:
        _assert_subquotient_matches_fraction_route(a, h)


def test_subgroup_sum_is_span_of_union():
    a = profile_module((("h", 4), ("c", 2)))
    rng = random.Random(5)
    for _ in range(20):
        g1, g2 = (fqm.Subgroup.from_generators(a, [rng.choice(a.elements())]) for _ in range(2))
        assert set(coords(g1 + g2)) == closure_reference(a, g1.generators + g2.generators)


def test_isotropic_generators_that_pair_nontrivially():
    a = fqm.hyperbolic_module(6)
    h = fqm.Subgroup.from_generators(a, [a.element((2, 0)), a.element((0, 1))])
    assert all(g.q() == 0 for g in h.generators) and not h.is_isotropic()
    with pytest.raises(PreconditionError):
        fqm.subquotient(a, h)


def test_non_closed_element_list_raises():
    a = fqm.hyperbolic_module(4)
    with pytest.raises(PreconditionError):
        fqm.Subgroup(a, [a.zero(), a.element((1, 0))])
    with pytest.raises(PreconditionError):
        fqm.Subgroup(a, [a.element((2, 0))])
    with pytest.raises(PreconditionError):
        fqm.Subgroup(a, [])


def test_hermite_rows_shape_and_lattice():
    rng = random.Random(11)
    for _ in range(200):
        moduli = [rng.choice([1, 2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 4))]
        r = len(moduli)
        rows = [[rng.randint(-30, 30) for _ in range(r)] for _ in range(rng.randint(0, 4))]
        h = hermite_rows(rows, moduli)
        assert len(h) == r
        for i in range(r):
            assert h[i][i] > 0 and moduli[i] % h[i][i] == 0
            assert all(h[i][j] == 0 for j in range(i))
            assert all(0 <= h[k][i] < h[i][i] for k in range(i))
        # the same lattice: the span of the rows modulo the moduli, closed by addition
        span = {(0,) * r}
        for row in rows:
            while True:
                more = span | {tuple((a + b) % d for a, b, d in zip(x, row, moduli)) for x in span}
                if more == span:
                    break
                span = more
        assert hermite_rows(list(span), moduli) == h
        assert len(span) * prod(h[i][i] for i in range(r)) == prod(moduli)


def test_large_module_needs_no_elements(monkeypatch):
    # order 28800, above BRUTE_FORCE_BOUND; every operation but enumeration works
    a = fqm.direct_sum(fqm.hyperbolic_module(120), fqm.cyclic_module(2, F(1, 4)))

    def refuse(self):
        raise AssertionError("elements() materialized")

    monkeypatch.setattr(fqm.FiniteQuadraticModule, "elements", refuse)
    assert a.order() == 28800 > fqm.BRUTE_FORCE_BOUND
    h = fqm.Subgroup.from_generators(a, [a.element((0, 8, 0))])
    perp = fqm.orthogonal_complement(a, h)
    assert h.order == 15 and perp.order == a.order() // 15
    assert perp.contains(a.element((15, 7, 1))) and not perp.contains(a.element((1, 0, 0)))
    b, proj, sect = fqm.subquotient(a, h)
    assert b.order() == a.order() // 225 and b.signature() == a.signature()
    for x in b.generators():
        assert proj(sect(x)) == x and sect(x).q() == x.q()
    assert fqm.negation_automorphism(a)(a.element((3, 4, 1))) == a.element((117, 116, 1))
    assert fqm.phi_r(a, 7)(a.element((1, 1, 0))) == a.element((7, 103, 0))
    with pytest.raises(PreconditionError):
        fqm.isotropic_subgroups(a, 2)
