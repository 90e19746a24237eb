"""The Q-value histogram route of fqm, cyclo.gauss_sum and dims against element loops.

The oracles in helpers.py walk module.elements(): gauss_sum_reference sums
e(c*Q(x)), compared with the canonical gauss_sum after reduce();
orbit_data_reference reads the {x, -x} orbit representatives and
dim_M_reference takes its traces in Fraction coefficients. Direct sums and
H(n) read their invariants from summands and closed forms; q_histogram_walk,
two_torsion_walk and gauss_sum_walk walk every coordinate instead.
"""

import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from math import lcm, prod

import pytest

from discforms import cyclo, dims, fqm
from helpers import (block, dim_M_reference, gauss_sum_reference, gauss_sum_walk,
                     orbit_data_reference, orbit_representatives_reference, q_histogram_walk,
                     q_value_reference, random_even_gram, random_module, two_torsion_walk, un,
                     validate_reference)

C_VALUES = (1, -1, 2, -2, 3)


def _named_modules():
    """The modules built in test_fqm.py and test_dims.py, plus seeded random ones."""
    a1 = fqm.cyclic_module(2, F(1, 4))
    out = {
        "trivial": fqm.trivial_module(),
        "A1": fqm.fqm_from_gram([[2]]),
        "A2": fqm.fqm_from_gram([[2, 1], [1, 2]]),
        "cyclic2": a1,
        "cyclic2_neg": fqm.negate(a1),
        "A1+A1": fqm.direct_sum(a1, a1),
        "A1+A1'": fqm.direct_sum(a1, fqm.cyclic_module(2, F(3, 4))),
        "A1+H3": fqm.direct_sum(a1, fqm.hyperbolic_module(3)),
        "A1+H9": fqm.direct_sum(a1, fqm.hyperbolic_module(9)),
        "H5+<4>": fqm.direct_sum(fqm.hyperbolic_module(5), fqm.fqm_from_gram([[4]])),
        "H3+H3": fqm.direct_sum(fqm.hyperbolic_module(3), fqm.hyperbolic_module(3)),
        "H5+H5": fqm.direct_sum(fqm.hyperbolic_module(5), fqm.hyperbolic_module(5)),
        "matrix_model_3": fqm.matrix_model_module(3),
    }
    for n in (2, 3, 4, 5, 7, 12):
        out["H%d" % n] = fqm.hyperbolic_module(n)
    for n in (3, 5, 7):
        out["<4>+U(%d)+U" % n] = fqm.fqm_from_gram(block([[4]], un(n), un(1)))
    out["<2>+U(7)+U"] = fqm.fqm_from_gram(block([[2]], un(7), un(1)))
    rng = random.Random(1234)
    for i in range(8):
        out["random_module_%d" % i] = random_module(rng, max_order=40)
    rng = random.Random(31)
    for i in range(8):
        out["random_gram_%d" % i] = fqm.fqm_from_gram(
            random_even_gram(rng, max_rank=4, max_det=300))
    return out


NAMED = _named_modules()
TABLE_NS = tuple(range(1, 41))


@lru_cache(maxsize=None)
def _reference_gauss(module, c):
    return gauss_sum_reference(module, c)


def _same_cyclotomic(x, y):
    return x.mod == y.mod and x.coeffs == y.coeffs and x.den == y.den


def _check_against_oracles(module):
    # gauss_sum is canonical and the element loop is not: canonical forms are
    # unique, so equal maps after reduce() are equal values
    for c in C_VALUES:
        fast, slow = cyclo.gauss_sum(module, c), _reference_gauss(module, c).reduce()
        assert _same_cyclotomic(fast, slow), (module, c, fast, slow)
        assert _same_cyclotomic(fast, fast.reduce()), (module, c, fast)
    assert dims._orbit_data(module) == orbit_data_reference(module)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_gauss_sums_and_orbit_data_on_named_modules(name):
    _check_against_oracles(NAMED[name])


def test_gauss_sums_and_orbit_data_on_table_rows():
    for n in TABLE_NS:
        _check_against_oracles(dims.table_row_module(n))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_orbit_representatives_match_the_seen_set_walk(name):
    a = NAMED[name]
    assert fqm.orbit_representatives(a) == orbit_representatives_reference(a)


def test_orbit_representatives_on_table_rows():
    for n in TABLE_NS:
        a = dims.table_row_module(n)
        assert fqm.orbit_representatives(a) == orbit_representatives_reference(a), n


def _weights(module):
    """Weights k > 2 with 2k = sig (mod 4): the least two, and one twelve higher."""
    k = F(module.signature() % 4, 2)
    while k <= 2:
        k += 2
    return (k, k + 2, k + 12)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_dimension_reports_on_named_modules(name):
    a = NAMED[name]
    for k in _weights(a):
        assert dims.dim_M(a, k)._asdict() == dim_M_reference(a, k, _reference_gauss), k


def test_dimension_reports_on_table_rows():
    # the reference's Fraction-coefficient reductions cost up to 0.8 s a row
    # beyond n = 30 (moduli up to 840), so the full report is compared on the
    # rows of perfbench/golden.json; its inputs are compared up to n = 40 above
    for n in range(1, 31):
        a = dims.table_row_module(n)
        assert dims.dim_M(a, F(5, 2))._asdict() == dim_M_reference(a, F(5, 2), _reference_gauss), n


def test_dimension_reports_on_kohnen_weights():
    a = NAMED["A1"]
    for k in (F(5, 2), F(9, 2), F(13, 2), F(17, 2), F(21, 2), F(25, 2)):
        assert dims.dim_M(a, k)._asdict() == dim_M_reference(a, k, _reference_gauss), k
    t = NAMED["trivial"]
    assert dims.dim_M(t, 12)._asdict() == dim_M_reference(t, 12, _reference_gauss)


def _big_product_spy(big_products):
    """CyclotomicNumber.__mul__, recording the moduli of each product of two multi-term numbers."""
    mul = cyclo.CyclotomicNumber.__mul__

    def spy(x, y):
        if isinstance(y, cyclo.CyclotomicNumber) and len(x.coeffs) > 1 and len(y.coeffs) > 1:
            big_products.append((x.mod, y.mod))
        return mul(x, y)

    return spy


def _check_kept_invariants_are_read(module, weights, monkeypatch):
    """sqrt_card only reads the kept signature and G(1), and dim_M pays two large products.

    With both read once, sqrt_card runs with reduce and rational_value made
    to raise and multiplies no two multi-term numbers, and it is raw-equal to
    e(-sig/8) * G(1); dim_M multiplies two multi-term numbers once per trace
    (S and ST), and its report matches the element-loop oracle.
    """
    module.signature()
    cyclo.gauss_sum(module, 1)
    big_products = []

    def refuse(self):
        raise AssertionError("sqrt_card reduced a cyclotomic number")

    with monkeypatch.context() as m:
        m.setattr(cyclo.CyclotomicNumber, "__mul__", _big_product_spy(big_products))
        m.setattr(cyclo.CyclotomicNumber, "reduce", refuse)
        m.setattr(cyclo.CyclotomicNumber, "rational_value", refuse)
        s = cyclo.sqrt_card(module)
    assert big_products == []
    want = cyclo.e_frac(F(-module.signature(), 8)) * gauss_sum_walk(module, 1)
    assert _same_cyclotomic(s, want)
    for k in weights:
        with monkeypatch.context() as m:
            m.setattr(cyclo.CyclotomicNumber, "__mul__", _big_product_spy(big_products))
            report = dims.dim_M(module, k)
        assert len(big_products) <= 2, (k, big_products)
        big_products.clear()
        assert report._asdict() == dim_M_reference(module, k, _reference_gauss), k


@pytest.mark.parametrize("name", sorted(NAMED))
def test_sqrt_card_reads_the_milgram_pass_on_named_modules(name, monkeypatch):
    # the kept signature is the Milgram pass's on a module with no structure, and
    # is read from the summands or the closed form on a sum or H(n)
    a = NAMED[name]
    _check_kept_invariants_are_read(a, _weights(a), monkeypatch)


def test_milgram_signature_never_runs_on_table_rows(monkeypatch):
    # the <1/4> block is built once per process and runs its one pass first
    dims._definite_block().signature()

    def refuse(a):
        raise AssertionError("milgram_signature ran on %r" % (a,))

    for n in TABLE_NS:
        with monkeypatch.context() as m:
            m.setattr(fqm, "milgram_signature", refuse)
            a = dims.table_row_module(n)
            rank = dims.picard_rank(n)
            _check_kept_invariants_are_read(a, (F(5, 2),), monkeypatch)
        assert rank == 1 + dims.dim_S(a, F(5, 2)), n
        assert a.signature() == fqm.milgram_signature(a) == 1, n


def _element_histogram(module):
    n = module.level()
    counts = Counter(q_value_reference(module, x) * n for x in module.elements())
    return tuple(counts.get(k, 0) for k in range(n))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_histogram_counts_the_elements(name):
    a = NAMED[name]
    n, counts = a.q_histogram()
    assert n == a.level() and len(counts) == n
    assert sum(counts) == a.order()
    assert counts == _element_histogram(a)
    assert all(a.q_value(x) == q_value_reference(a, x) for x in a.elements())
    n2, counts2 = fqm.two_torsion_q_histogram(a)
    two_torsion = [x for x in a.elements() if (x + x).is_zero()]
    assert n2 == n and sum(counts2) == len(two_torsion)
    assert counts2 == tuple(sum(1 for x in two_torsion if x.q() * n == k) for k in range(n))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_nq_values_follow_the_elements(name):
    a = NAMED[name]
    assert a.nq_values([range(d) for d in a.orders]) == [a.nq_value(x) for x in a.elements()]
    assert a.nq_values([range(d) for d in a.orders]) == [
        q_value_reference(a, x) * a.level() for x in a.elements()]
    halves = [(0, d // 2) if d % 2 == 0 else (0,) for d in a.orders]
    assert a.nq_values(halves) == [a.nq_value(x) for x in a.elements()
                                   if all(c in h for c, h in zip(x.coords, halves))]


def _convolve(ha, hb):
    """Histogram of Q_a + Q_b at the lcm level, from the two histograms."""
    na, ca = ha
    nb, cb = hb
    n = lcm(na, nb)
    out = [0] * n
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                if y:
                    out[(i * (n // na) + j * (n // nb)) % n] += x * y
    return n, tuple(out)


@pytest.mark.parametrize("seed", range(6))
def test_histogram_of_direct_sum_is_convolution(seed):
    rng = random.Random(7000 + seed)
    for _ in range(6):
        a, b = random_module(rng, max_order=30), random_module(rng, max_order=30)
        s = fqm.direct_sum(a, b)
        assert s.q_histogram() == _convolve(a.q_histogram(), b.q_histogram())
        assert sum(s.q_histogram()[1]) == s.order()


@pytest.mark.parametrize("seed", range(4))
def test_histogram_of_negation_mirrors(seed):
    rng = random.Random(8000 + seed)
    for _ in range(6):
        a = fqm.direct_sum(random_module(rng, max_order=30), random_module(rng, max_order=30))
        n, counts = a.q_histogram()
        assert fqm.negate(a).q_histogram() == (n, tuple(counts[-k % n] for k in range(n)))


def test_dims_never_materializes_elements(monkeypatch):
    expected = dims.picard_rank(12)

    def refuse(self):
        raise AssertionError("elements() called for %r" % (self,))

    monkeypatch.setattr(fqm.FiniteQuadraticModule, "elements", refuse)
    assert dims.picard_rank(12) == expected == 7
    assert dims.dim_M(fqm.fqm_from_gram(block([[4]], un(5), un(1))), F(5, 2)).dim_S >= 0


# -- the summand route against the walk -----------------------------------------------

C_RANGE = range(-6, 7)
# dims.picard_rank on rows 990..999, computed by the full-A histogram walk
PICARD_PINS = {990: 119557, 991: 122266, 992: 120329, 993: 122431, 994: 122131,
               995: 122862, 996: 121941, 997: 124003, 998: 123754, 999: 123355}


def _check_against_walk(module):
    """Both histograms bin for bin, every Gauss sum raw-equal to the element walk,
    and the signature equal to the Milgram pass.

    Every G(c) kept on the module, under c mod level, is compared with a fresh
    walk too, and there are at most level of them.
    """
    assert module.q_histogram() == q_histogram_walk(module), module
    assert fqm.two_torsion_q_histogram(module) == two_torsion_walk(module), module
    for c in C_RANGE:
        fast, slow = cyclo.gauss_sum(module, c), gauss_sum_walk(module, c)
        assert _same_cyclotomic(fast, slow), (module, c, fast, slow)
    n = module.level()
    assert len(module._gauss) <= n and all(0 <= c < n for c in module._gauss), module
    for c, kept in module._gauss.items():
        assert _same_cyclotomic(kept, gauss_sum_walk(module, c)), (module, c)
    assert module.signature() == fqm.milgram_signature(module), module


def _random_sum(rng, with_hyperbolic):
    """A direct sum of 2 to 4 random modules, nested on either side, maybe with an H(m).

    The order stays at most 2000, so that validate_reference walks it in Fractions quickly.
    """
    while True:
        parts = [random_module(rng, max_order=12) for _ in range(rng.randint(2, 4))]
        if with_hyperbolic:
            parts[rng.randrange(len(parts))] = fqm.hyperbolic_module(rng.randint(2, 7))
        if prod(p.order() for p in parts) <= 2000:
            break
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [fqm.direct_sum(*parts[i:i + 2])]
    return parts[0]


def _check_negation(a):
    """negate(a) keeps a's structure on the presentation of the plain negation."""
    b = fqm.negate(a)
    assert b._key == (a.orders, tuple(-q % 1 for q in a.q_values),
                      tuple(tuple(-x % 1 for x in row) for row in a.bilinear)), a
    assert bool(b._summands) == bool(a._summands) and b._hyperbolic == a._hyperbolic, a
    assert fqm.negate(b) == a
    _check_presentation(b)
    _check_against_walk(b)


def test_summand_route_matches_the_walk_on_table_rows():
    a1 = dims.table_row_module(1)
    assert a1._summands and a1._summands[0] is dims.table_row_module(80)._summands[0]
    for n in range(1, 81):
        a = dims.table_row_module(n)
        _check_against_walk(a)
        assert validate_reference(a.orders, a.q_values, a.bilinear) is None, n
        if n <= 40:
            _check_negation(a)


def test_closed_forms_match_the_walk_on_hyperbolic_planes():
    for n in range(2, 201):
        a = fqm.hyperbolic_module(n)
        assert a._hyperbolic
        _check_against_walk(a)
        if n <= 40:
            _check_negation(a)


def _check_presentation(a):
    """a, built unvalidated, passes _validate and matches the validated build of its presentation."""
    assert a._validate() is None, a
    b = fqm.FiniteQuadraticModule(a.orders, a.q_values, a.bilinear)
    assert (a._key, a._hash, a._level, a._nq, a._nb) == (b._key, b._hash, b._level, b._nq,
                                                         b._nb), a


def test_hyperbolic_planes_pass_the_construction_checks():
    for n in range(1, 301):
        a = fqm.hyperbolic_module(n)
        assert a._hyperbolic and a.level() == n, n
        _check_presentation(a)


@pytest.mark.parametrize("seed", range(6))
def test_summand_route_matches_the_walk_on_random_sums(seed):
    rng = random.Random(9100 + seed)
    for i in range(12):
        a = _random_sum(rng, with_hyperbolic=i % 2 == 1)
        assert a._summands
        _check_against_walk(a)
        assert validate_reference(a.orders, a.q_values, a.bilinear) is None, a
        _check_presentation(a)
        _check_negation(a)


@pytest.mark.parametrize("seed", range(3))
def test_sparse_convolution_matches_the_dense_one(seed):
    rng = random.Random(9200 + seed)
    for _ in range(10):
        a, b = random_module(rng, max_order=30), fqm.hyperbolic_module(rng.randint(2, 9))
        for x, y in ((a, b), (b, a), (a, a)):
            for hist in (q_histogram_walk, two_torsion_walk):
                assert fqm._convolve(hist(x), hist(y)) == _convolve(hist(x), hist(y))


def test_picard_rows_near_1000_match_the_walk_values():
    assert {n: dims.picard_rank(n) for n in PICARD_PINS} == PICARD_PINS


def test_picard_row_997_walks_no_module_above_order_2(monkeypatch):
    walked = []
    count = fqm.FiniteQuadraticModule._count_q_values

    def spy(self, choices):
        walked.append(self.order())
        return count(self, choices)

    monkeypatch.setattr(fqm.FiniteQuadraticModule, "_count_q_values", spy)
    dims._definite_block.cache_clear()
    assert dims.picard_rank(997) == PICARD_PINS[997]
    assert walked and max(walked) <= 2, walked
