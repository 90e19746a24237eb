"""The structured products of WeilMatrix against the dense reference loop.

Every product is compared entrywise with dense_matmul_reference: the modulus,
the coefficient map of every entry of the dense view .mat, and the scale.
"""

import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

from discforms import cyclo, fqm, weil
from discforms.cyclo import CyclotomicNumber, e_frac
from discforms.errors import PreconditionError
from helpers import (DenseReference, dense_matmul_reference, first_difference_reference,
                     profile_module, rho_of_reference, transform_reference)

# The modules of test_weil.py.
TEST_WEIL_MODULES = (
    ("trivial", lambda: fqm.trivial_module()),
    ("Z2(1/4)", lambda: fqm.cyclic_module(2, F(1, 4))),
    ("Z3(1/3)", lambda: fqm.cyclic_module(3, F(1, 3))),
    ("Z4(3/8)", lambda: fqm.cyclic_module(4, F(3, 8))),
    ("gram[[2]]", lambda: fqm.fqm_from_gram([[2]])),
    ("gram[[4]]", lambda: fqm.fqm_from_gram([[4]])),
    ("gram A2", lambda: fqm.fqm_from_gram([[2, 1], [1, 2]])),
    ("H(3)", lambda: fqm.hyperbolic_module(3)),
    ("H(4)", lambda: fqm.hyperbolic_module(4)),
    ("H(5)", lambda: fqm.hyperbolic_module(5)),
    ("H(7)", lambda: fqm.hyperbolic_module(7)),
)

# The distinct module profiles of the weil_relations benchmark up to order 48
# (see helpers.profile_module).
BENCH_PROFILES = (
    (("c", 2),), (("c", 3),), (("c", 4),), (("h", 2),), (("c", 5),), (("c", 7),),
    (("c", 8),), (("c", 9),), (("c", 11),), (("h", 2), ("c", 3)), (("c", 13),),
    (("h", 4),), (("h", 2), ("c", 4)), (("h", 2), ("h", 2)), (("h", 3), ("c", 2)),
    (("h", 2), ("c", 5)), (("h", 2), ("c", 2), ("c", 3)), (("h", 5),), (("h", 3), ("c", 3)),
    (("h", 2), ("c", 7)), (("h", 4), ("c", 2)), (("h", 6),), (("h", 2), ("h", 3)),
    (("h", 3), ("c", 4)), (("h", 2), ("c", 2), ("c", 5)), (("h", 3), ("c", 5)),
    (("h", 4), ("c", 3)),
)


CONSTANT, VARIES = weil.CONSTANT, weil.VARIES


def generator_matrices(a):
    """S, S^dagger, T, T^-1, Z and the negation and phi_r automorphism matrices."""
    s = weil.rho_S(a)
    mats = {"S": s, "S_dag": s.conj_transpose(), "T": weil.rho_T(a),
            "T_inv": weil.rho_T(a, -1), "Z": weil.rho_Z(a),
            "neg": weil.aut_matrix(a, fqm.negation_automorphism(a))}
    try:
        mats["phi_r"] = weil.aut_matrix(a, fqm.phi_r(a, weil._coprime_unit(a)))
    except PreconditionError:
        pass
    return mats


def snapshot(m):
    return (m.mod, m.scale.mod, m.scale.coeffs, m.scale.den,
            [[(x.mod, x.coeffs, x.den) for x in row] for row in m.mat])


def assert_same_product(x, y, label):
    assert snapshot(x @ y) == snapshot(dense_matmul_reference(x, y)), label


def check_all_pairs(a):
    mats = generator_matrices(a)
    for p, x in mats.items():
        for q, y in mats.items():
            assert_same_product(x, y, (a.orders, p, q))


@pytest.mark.parametrize("name,make", TEST_WEIL_MODULES, ids=[m[0] for m in TEST_WEIL_MODULES])
def test_generator_pairs_on_test_modules(name, make):
    check_all_pairs(make())


@pytest.mark.parametrize("name,make", TEST_WEIL_MODULES, ids=[m[0] for m in TEST_WEIL_MODULES])
def test_entry_reads_one_row(name, make):
    # entry(i, j) is scale * .mat[i][j], raw-equal, on every generator product, and reading
    # it builds no dense view (rows 0, n/2 and n - 1)
    a = make()
    n = a.order()
    rows = sorted({0, n // 2, n - 1})
    mats = generator_matrices(a)
    for p, x in mats.items():
        for q, y in mats.items():
            xy = x @ y
            got = [xy.entry(i, j) for i in rows for j in range(n)]
            assert xy._mat is None, (p, q)
            want = [xy.scale * xy.mat[i][j] for i in rows for j in range(n)]
            assert [(v.mod, v.coeffs, v.den) for v in got] == \
                [(v.mod, v.coeffs, v.den) for v in want], (name, p, q)


@pytest.mark.parametrize("profile", BENCH_PROFILES,
                         ids=["".join("%s%d" % b for b in p) for p in BENCH_PROFILES])
def test_generator_pairs_on_benchmark_profiles(profile):
    a = profile_module(profile)
    assert a.order() <= 48
    check_all_pairs(a)


def test_products_of_products():
    # T^k S, S Z and S P are root-of-unity matrices that are not generators
    a = profile_module((("h", 2), ("c", 3)))
    mats = generator_matrices(a)
    ts = mats["T"] @ mats["S"]
    sz = mats["S"] @ mats["Z"]
    sp = mats["S"] @ mats["neg"]
    for x in (ts, sz, sp):
        for y in (ts, sz, sp, mats["S_dag"], mats["T_inv"]):
            assert_same_product(x, y, "composite")
            assert_same_product(y, x, "composite")


def assert_refused(x, y):
    with pytest.raises(PreconditionError) as err:
        x @ y
    assert "of a %s and a %s matrix" % (x.shape(), y.shape()) in str(err.value)


def test_kernel_choice():
    # every pair has a product rule, a constant K times a varying K by
    # (AB)^dagger = B^dagger A^dagger, and the product is monomial exactly when both
    # factors are; K varying on both sides is refused with both shapes named
    a = fqm.hyperbolic_module(3)
    m = generator_matrices(a)
    st = m["S"] @ m["T"]
    table = m["S"] @ m["S_dag"]
    structured = [(m[x], m[y]) for x in m for y in m]
    structured += [(table, m["Z"]), (m["T"] @ m["S"] @ m["T"], m["T_inv"]),
                   (m["S_dag"] @ m["Z"], m["T_inv"] @ m["S_dag"]), (st @ st, st),
                   (m["S"], table), (m["T"] @ m["S"], st @ st), (table, st @ st),
                   (st @ st, table)]
    for x, y in structured:
        monomial = x.tag == y.tag == "monomial"
        assert ((x @ y).tag == "monomial") == monomial, (x.shape(), y.shape())
        assert_same_product(x, y, (x.shape(), y.shape()))
    assert table.shape() == VARIES and (st @ st).shape() == CONSTANT
    assert_refused(table, table)


def test_structure_tags():
    for a in (fqm.hyperbolic_module(5), profile_module((("h", 2), ("c", 3))),
              fqm.cyclic_module(4, F(3, 8))):
        m = generator_matrices(a)
        assert m["S"].shape() == m["S_dag"].shape() == CONSTANT
        assert {m[x].tag for x in ("T", "T_inv", "Z", "neg")} == {"monomial"}
        assert weil.identity_matrix(a).tag == "monomial"
        st = m["S"] @ m["T"]
        cube = st @ st @ st
        for prod, shape in ((m["S"] @ m["S_dag"], VARIES),
                            (m["T"] @ m["S"] @ m["T"], CONSTANT),
                            ((m["S_dag"] @ m["Z"]) @ (m["T_inv"] @ m["S_dag"]), CONSTANT),
                            (cube, VARIES)):
            assert prod.shape() == shape, (a.orders, shape)
        assert cube == m["Z"] and m["S"] @ m["S"] == m["Z"]


def test_every_table_has_n_entries():
    # K is a list of n entry indices on every quadratic matrix that relation_report and
    # rho_of build; on S it is 1 everywhere
    made, init = [], weil.WeilMatrix.__init__

    def spy(self, *args):
        init(self, *args)
        made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weil.WeilMatrix, "__init__", spy)
        for name, make in TEST_WEIL_MODULES:
            a = make()
            assert weil.rho_S(a).data[4] == [1] * a.order(), name
            weil.relation_report(a)
            rng = random.Random("tables:%s" % name)
            for _ in range(3):
                weil.rho_of(a, random_sl2(rng))
    quadratic = [x for x in made if x.tag == "quadratic"]
    assert len(quadratic) > 100
    assert all(type(x.data[4]) is list and len(x.data[4]) == x.size for x in quadratic)


@pytest.mark.parametrize("name,make", TEST_WEIL_MODULES, ids=[m[0] for m in TEST_WEIL_MODULES])
def test_index_maps_are_lists_of_codes(name, make):
    # src and dst of a monomial matrix, R, C, P and Q of a quadratic one: a list of n codes
    # on the generators, their pairwise products, the conjugate transposes of both and
    # seeded rho(M), the trivial module included
    a = make()
    n = a.order()
    gens = list(generator_matrices(a).values())
    mats = gens + [x @ y for x in gens for y in gens]
    mats += [x.conj_transpose() for x in mats]
    rng = random.Random("maps:%s" % name)
    mats += [weil.rho_of(a, weil.MetaplecticElement(random_sl2(rng), rng.randrange(2)))
             for _ in range(4)]
    for x in mats:
        maps = x.data[:2] if x.tag == "monomial" else x.data[2:4] + x.data[5:]
        for f in maps:
            assert type(f) is list and len(f) == n, (name, x.tag)
            assert all(type(c) is int and 0 <= c < n for c in f), (name, x.tag)


@pytest.mark.parametrize("name,make", TEST_WEIL_MODULES, ids=[m[0] for m in TEST_WEIL_MODULES])
def test_gaussian_products_match_dense_reference(name, make):
    # S T^c S for every c in [0, M), and S^dagger (S T^c S) through (B^dagger A^dagger)^dagger,
    # raw-equal to the dense loop. T^c depends on c only through gamma = c*q, so one c per
    # distinct gamma is multiplied out. For c a unit mod the exponent K is one entry
    # everywhere; otherwise it is the histogram transform of gamma.
    a = make()
    tab = weil._tables(a)
    s = weil.rho_S(a)
    s_dag = s.conj_transpose()
    seen = set()
    for c in range(tab.mod):
        gamma = [c * v % tab.mod for v in tab.q]
        if tuple(gamma) in seen:
            continue
        seen.add(tuple(gamma))
        st = s @ weil.rho_T(a, c)
        x = st @ s
        assert snapshot(x) == snapshot(dense_matmul_reference(st, s)), (name, c)
        assert_same_product(s_dag, x, (name, c))
        k = x.data[4]
        if gcd(c, tab.exponent) == 1:
            assert len(set(k)) == 1 and x.data[5:] == (tab.zeros, tab.zeros), (name, c)
        else:
            assert k == transform_reference(tab, None, gamma), (name, c)
    # (S T)^3 both ways round: a Gauss sum K on the left, and K = 1 times a Gauss sum K
    st = s @ weil.rho_T(a)
    assert len(set((st @ st).data[4])) == 1
    assert_same_product(st @ st, st, name)
    assert_same_product(st, st @ st, name)


@pytest.mark.parametrize("profile", [(("h", 3),), (("h", 2), ("c", 3)), (("c", 8),),
                                     (("h", 2), ("h", 2))],
                         ids=lambda p: "".join("%s%d" % b for b in p))
def test_histogram_transforms_match_reference(profile):
    # every transform a product takes, gamma = 0 (character sums by element order) and
    # a varying K included, raw-equal to one histogram per row
    a = profile_module(profile)
    tab = weil._tables(a)
    rng = random.Random("transform:%s" % (profile,))
    ks = [None, tab.transform(None, tab.zeros),
          [rng.randrange(len(tab.objs)) for _ in range(tab.n)]]
    for c in range(tab.mod):
        gamma = [c * v % tab.mod for v in tab.q]
        for k in ks:
            assert tab.transform(k, gamma) == transform_reference(tab, k, gamma), (c, k)
    gamma = [rng.randrange(tab.mod) for _ in range(tab.n)]
    assert tab.transform(None, gamma) == transform_reference(tab, None, gamma)
    assert len(tab._transforms) <= weil.TRANSFORM_CACHE


def _bracketings(word):
    """Every bracketing of the word, as nested pairs of letters."""
    if len(word) == 1:
        yield word[0]
        return
    for k in range(1, len(word)):
        for left in _bracketings(word[:k]):
            for right in _bracketings(word[k:]):
                yield left, right


def _bracketed_product(mats, tree):
    if isinstance(tree, str):
        return mats[tree]
    return _bracketed_product(mats, tree[0]) @ _bracketed_product(mats, tree[1])


# The bracketing of S^4 with no product rule: K varies on both sides. (S (S S)) S
# and S ((S S) S) are taken through the constant K of S (S S) and (S S) S.
UNRULED_BRACKETINGS = {(("S", "S"), ("S", "S"))}


@pytest.mark.parametrize("profile", [(("h", 3),), (("h", 2), ("c", 3))],
                         ids=lambda p: "".join("%s%d" % b for b in p))
def test_every_bracketing_of_short_words(profile):
    # every bracketing of every word of length <= 4 in S, T and Z equals the left
    # fold, right-associated words in S included; only UNRULED_BRACKETINGS are refused
    a = profile_module(profile)
    mats = {"S": weil.rho_S(a), "T": weil.rho_T(a), "Z": weil.rho_Z(a)}
    refused, count = set(), 0
    for n in range(1, 5):
        for word in product("STZ", repeat=n):
            want = mats[word[0]]
            for x in word[1:]:
                want = want @ mats[x]
            for tree in _bracketings(word):
                count += 1
                try:
                    got = _bracketed_product(mats, tree)
                except PreconditionError:
                    refused.add(tree)
                    continue
                assert got == want, tree
    assert count == 3 + 9 + 2 * 27 + 5 * 81
    assert refused == UNRULED_BRACKETINGS
    assert mats["S"] @ (mats["S"] @ mats["S"]) == mats["Z"] @ mats["S"]


WORD_LETTERS = ("S", "S_dag", "T", "T_inv", "Z", "neg", "phi_r")


@pytest.mark.parametrize("profile", [(("h", 3),), (("h", 2), ("c", 3)), (("c", 8),),
                                     (("h", 4),), (("h", 5),)],
                         ids=lambda p: "".join("%s%d" % b for b in p))
def test_random_words_against_dense_reference(profile):
    # seeded words of length <= 5 in the generators, folded left to right
    a = profile_module(profile)
    mats = generator_matrices(a)
    letters = [x for x in WORD_LETTERS if x in mats]
    rng = random.Random("words:%s" % (profile,))
    for _ in range(12):
        word = [rng.choice(letters) for _ in range(rng.randint(2, 5))]
        got = want = mats[word[0]]
        for x in word[1:]:
            got = got @ mats[x]
            want = dense_matmul_reference(want, mats[x])
            assert snapshot(got) == snapshot(want), word


def test_first_difference_on_tags():
    a = fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(3))
    m = generator_matrices(a)
    st = m["S"] @ m["T"]
    # equal values under different tags and representations
    assert (m["S"] @ m["S"]).first_difference(m["Z"]) is None
    assert (st @ st @ st) == m["Z"]
    for x in (m["S"], m["T"], m["S"] @ m["S_dag"], st @ st):
        dense = DenseReference(a, x.scale, x.mat)
        assert x == dense and dense == x
        assert not x.scaled(-1) == dense and not dense == x.scaled(-1)
    # differences: a power of T, a scale, a table against a scaled monomial
    for x, y in ((m["T"], weil.rho_T(a, 2)), (m["S"], m["S"].scaled(-1)),
                 (m["S"] @ m["S"], m["Z"].scaled(e_frac(F(1, 3)))),
                 (m["T"] @ m["S"] @ m["T"], m["S_dag"] @ m["T"])):
        i, j, d = x.first_difference(y)
        assert not x == y
        assert (x.entry(i, j) - y.entry(i, j) - d).is_zero() and not d.is_zero()
        n = x.size
        assert all((x.entry(k // n, k % n) - y.entry(k // n, k % n)).is_zero()
                   for k in range(i * n + j)), (i, j)


def _random_scale(rng, mod):
    """A rational multiple of a root of unity at a random divisor of mod."""
    d = rng.choice([d for d in range(1, mod + 1) if mod % d == 0])
    return CyclotomicNumber(d, {rng.randrange(d): F(rng.randint(1, 6), rng.randint(1, 6))})


def _random_word(rng, a, mats):
    """A seeded product of one to three generators with a random scale, and its dense fold.

    Letters whose product with the word so far has no rule are skipped.
    """
    letters = sorted(mats) + ["T^k"]
    x = None
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(letters)
        y = weil.rho_T(a, rng.randint(-5, 5)) if name == "T^k" else mats[name]
        if x is None:
            x, want = y, DenseReference(a, y.scale, y.mat)
            continue
        try:
            x = x @ y
        except PreconditionError:
            continue
        want = dense_matmul_reference(want, y)
    c = _random_scale(rng, x.mod)
    return x.scaled(c), want.scaled(c)


@pytest.mark.parametrize("seed", range(4))
def test_random_matrices_mixed_moduli(seed):
    # modules at the moduli 8, 40 and 24, words with scales at random divisors of
    # them: every entry of .mat lives at the module's modulus lcm(8, level), each
    # word equals its dense fold, and each pair multiplies as the dense loop does,
    # or is refused exactly when K varies on both sides
    rng = random.Random(900 + seed)
    shapes = set()
    for a in (fqm.hyperbolic_module(2), fqm.cyclic_module(5, F(1, 5)),
              fqm.hyperbolic_module(3)):
        mats = generator_matrices(a)
        for _ in range(6):
            (x, want_x), (y, want_y) = _random_word(rng, a, mats), _random_word(rng, a, mats)
            assert x.mod == y.mod == weil._modulus(a)
            assert {v.mod for m in (x, y) for row in m.mat for v in row} == {x.mod}
            assert x == want_x and want_x == x and y == want_y and want_y == y
            for u, v in ((x, y), (x, x)):
                shapes.add((u.shape(), v.shape()))
                if u.shape() == v.shape() == VARIES:
                    assert_refused(u, v)
                else:
                    assert_same_product(u, v, (a.orders, u.shape(), v.shape()))
    assert (VARIES, VARIES) in shapes and len(shapes) >= 6, shapes


def _random_monomial(rng, a):
    """A monomial matrix on a random permutation of the codes with random phases."""
    tab = weil._tables(a)
    src = list(range(tab.n))
    rng.shuffle(src)
    ph = [rng.randrange(tab.mod) for _ in range(tab.n)]
    return weil.WeilMatrix(a, _random_scale(rng, tab.mod), "monomial",
                           (src, tab.inverse(src), ph))


def test_sparse_random_matrices():
    # monomial matrices on random permutations, not additive in general: one root
    # of unity per row and column, products with each other and with the
    # generators as the dense loop, and the first difference of two of them as
    # the row walk reference
    rng = random.Random(31)
    a = fqm.hyperbolic_module(3)
    tab = weil._tables(a)
    mats = generator_matrices(a)
    for _ in range(8):
        x, y = _random_monomial(rng, a), _random_monomial(rng, a)
        src, _dst, ph = x.data
        for i, row in enumerate(x.mat):
            assert [j for j, v in enumerate(row) if not v.is_zero()] == [src[i]]
            assert (row[src[i]] - e_frac(F(ph[i], tab.mod))).is_zero()
        assert all(sum(not row[j].is_zero() for row in x.mat) == 1 for j in range(tab.n))
        assert (x @ y).tag == "monomial"
        for z in [y] + [mats[k] for k in sorted(mats)]:
            assert_same_product(x, z, ("monomial", z.shape()))
            assert_same_product(z, x, (z.shape(), "monomial"))
        assert_same_difference(x, y, "random monomials")
        assert x.first_difference(x.scaled(1)) is None


ALL_MODULES =[make() for _name, make in TEST_WEIL_MODULES] + \
    [profile_module(p) for p in BENCH_PROFILES]


def test_signature_matches_the_milgram_pass():
    # direct sums add their summands' signatures and H(n) has 0, with no Milgram pass
    for a in ALL_MODULES:
        assert a.signature() == fqm.milgram_signature(a), a.orders


def test_integer_rho_S_matches_fraction_reference():
    for a in ALL_MODULES:
        s = weil.rho_S(a)
        elts = a.elements()
        want_scale = e_frac(F(-a.signature(), 8)) * cyclo.sqrt_card(a) * F(1, a.order())
        assert (s.scale.mod, s.scale.coeffs, s.scale.den) == \
            (want_scale.mod, want_scale.coeffs, want_scale.den)
        for i, x in enumerate(elts):
            for j, y in enumerate(elts):
                want = e_frac(-x.bil(y))._promoted(s.mod)
                got = s.mat[i][j]
                assert (got.mod, got.coeffs, got.den) == (want.mod, want.coeffs, want.den), \
                    (a.orders, x, y)


def test_integer_rho_T_matches_fraction_reference():
    for a in ALL_MODULES:
        for k in (1, -1, 3):
            t = weil.rho_T(a, k)
            zero = CyclotomicNumber(t.mod, {})
            for i, x in enumerate(a.elements()):
                for j, v in enumerate(t.mat[i]):
                    want = e_frac(k * x.q())._promoted(t.mod) if i == j else zero
                    assert (v.mod, v.coeffs, v.den) == (want.mod, want.coeffs, want.den), \
                        (a.orders, k, x)


def count_rows(mp):
    """Make WeilMatrix._row count its calls on mp; returns the one-element counter."""
    rows, row = [0], weil.WeilMatrix._row

    def count(self, tab, i):
        rows[0] += 1
        return row(self, tab, i)

    mp.setattr(weil.WeilMatrix, "_row", count)
    return rows


def row_walks(pairs):
    """first_difference of each pair, with the number of rows it built."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        rows = count_rows(mp)
        for x, y in pairs:
            before = rows[0]
            out.append((x.first_difference(y), rows[0] - before))
    return out


def test_eq_detects_one_entry_and_scale_differences():
    # the row walk, after the rules of _EQUALITIES prove nothing: equal values in
    # other raw forms, one entry changed, and only the scale changed
    a = fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(3))
    tab = weil._tables(a)
    s, t = weil.rho_S(a), weil.rho_T(a)
    s_dag = s.conj_transpose()
    n = s.size
    table = s @ s_dag
    assert s == s and s == weil.WeilMatrix(a, s.scale * 1, s.tag, s.data)
    # S S^dagger and S^dagger S, and the table with its K doubled and its scale halved
    alpha, beta, r, c, k, p, q = table.data
    doubled = weil.WeilMatrix(a, table.scale * F(1, 2), "quadratic",
                              (alpha, beta, r, c, tab.times(k, tab.kid(tab.objs[1] * 2)), p, q))
    equal = [(table, s_dag @ s), (s_dag @ s, table), (table, doubled), (doubled, table)]
    assert {(x.shape(), y.shape()) for x, y in equal} == {(VARIES, VARIES)}
    assert (VARIES, VARIES) not in weil._EQUALITIES
    for got, rows in row_walks(equal):
        assert got is None and rows == 2 * n
    # one phase of T changed, located exactly
    src, dst, ph = t.data
    for i in (0, n - 1, 5):
        bumped = list(ph)
        bumped[i] = (bumped[i] + tab.mod // 3) % tab.mod
        other = weil.WeilMatrix(a, t.scale, "monomial", (src, dst, bumped))
        assert not t == other and not other == t, i
        (got, rows), = row_walks([(t, other)])
        assert got[:2] == (i, i) and rows == 2 * (i + 1)
        assert (t.entry(i, i) - other.entry(i, i) - got[2]).is_zero()
    # only the scale differs, by a root of unity or by a rational factor
    for x in (s, table):
        for c in (e_frac(F(1, 8)), -1, F(3, 2)):
            assert not x == x.scaled(c) and not x.scaled(c) == x, c
            (got, rows), = row_walks([(x, x.scaled(c))])
            assert got[:2] == (0, 0) and rows == 2, c
    ident = weil.identity_matrix(a)
    assert ident.is_identity() and not ident.scaled(-1).is_identity()


@pytest.mark.parametrize("profile", [(("h", 3),), (("h", 2), ("c", 3)), (("c", 4),),
                                     (("h", 2), ("c", 5))],
                         ids=lambda p: "".join("%s%d" % b for b in p))
def test_conj_transpose_on_tags(profile):
    # the tag is kept, the scale is conjugated, and entry (i, j) is entry (j, i) conjugated
    a = profile_module(profile)
    m = generator_matrices(a)
    st = m["S"] @ m["T"]
    cases = [(m["T"], "monomial"), (weil.rho_T(a, -3), "monomial"), (m["Z"], "monomial"),
             (m["neg"], "monomial"), (m["S"], CONSTANT), (m["S_dag"], CONSTANT),
             (m["T"] @ m["S"] @ m["T"], CONSTANT), (m["S"] @ m["S_dag"], VARIES),
             (m["S"] @ m["S"], VARIES),
             ((m["S_dag"] @ m["Z"]) @ (m["T_inv"] @ m["S_dag"]), CONSTANT),
             (st @ st @ st, VARIES)]
    n = a.order()
    for x, tag in cases:
        y = x.conj_transpose()
        assert x.shape() == y.shape() == tag
        assert y.scale == x.scale.conjugate(), tag
        assert all(y.mat[i][j] == x.mat[j][i].conjugate()
                   for i in range(n) for j in range(n)), tag
        assert y == DenseReference(a, x.scale, x.mat).conj_transpose(), tag


def compared_pairs(a):
    """The (lhs, rhs) pairs that relation_report compares on a, in order, with their row walks.

    Each pair comes with the number of rows that first_difference built for it.
    """
    pairs, first_difference = [], weil.WeilMatrix.first_difference

    def spy(self, other):
        before = rows[0]
        out = first_difference(self, other)
        pairs.append((self, other, rows[0] - before))
        return out

    with pytest.MonkeyPatch.context() as mp:
        rows = count_rows(mp)
        mp.setattr(weil.WeilMatrix, "first_difference", spy)
        report = weil.relation_report(a)
    assert all(report.values()) and len(pairs) == len(report), a.orders
    return pairs


def variants(x):
    """Matrices next to x: copies of its index maps, and single changes that may differ.

    A monomial gets fresh copies of its maps, one phase +1 and two src
    entries swapped; a quadratic matrix fresh copies of its maps, one alpha
    +1, two cross-row entries swapped (no longer additive), its cross column
    map negated (another pairing), one K entry id replaced and both table
    maps zero (one entry everywhere); every matrix its scale times e(1/M).
    """
    a = x.module
    tab = weil._tables(a)
    n, mid = tab.n, tab.n // 2

    def tagged(data):
        return weil.WeilMatrix(a, x.scale, x.tag, data)

    def swapped(f):
        f = list(f)
        f[0], f[-1] = f[-1], f[0]
        return f

    out = [x.scaled(e_frac(F(1, x.mod)))]
    if x.tag == "monomial":
        src, dst, ph = x.data
        bumped = list(ph)
        bumped[mid] = (bumped[mid] + 1) % tab.mod
        src2 = swapped(src)
        dst2 = [0] * n
        for y, v in enumerate(src2):
            dst2[v] = y
        out += [tagged((list(src), list(dst), ph)),
                tagged((src, dst, bumped)), tagged((src2, dst2, ph))]
    elif x.tag == "quadratic":
        alpha, beta, r, c, k, p, q = x.data
        bumped = list(alpha)
        bumped[mid] = (bumped[mid] + 1) % tab.mod
        copies = [list(f) for f in (r, c, p, q)]
        out += [tagged((alpha, beta, copies[0], copies[1], k, copies[2], copies[3])),
                tagged((bumped, beta, r, c, k, p, q)), tagged((alpha, beta, swapped(r), c, k, p, q)),
                tagged((alpha, beta, r, tab.pull(tab.mul(-1), c), k, p, q))]
        k2 = list(k)
        k2[mid] = 1 if tab.canon(k2[mid]) != 1 else 0
        out += [tagged((alpha, beta, r, c, k2, p, q)),
                tagged((alpha, beta, r, c, k, tab.zeros, tab.zeros))]
    return out


def difference_key(d):
    return d if d is None else (d[0], d[1], d[2].mod, d[2].coeffs, d[2].den)


def assert_same_difference(x, y, label):
    got = difference_key(x.first_difference(y))
    assert got == difference_key(first_difference_reference(x, y)), label


EVERY_MODULE = pytest.mark.parametrize(
    "make", [make for _name, make in TEST_WEIL_MODULES]
    + [lambda p=p: profile_module(p) for p in BENCH_PROFILES],
    ids=[m[0] for m in TEST_WEIL_MODULES] + ["".join("%s%d" % b for b in p) for p in BENCH_PROFILES])


@EVERY_MODULE
def test_first_difference_matches_row_walk_reference(make):
    # every pair of relation_report, and each side against the variants of the other,
    # both ways round
    a = make()
    for lhs, rhs, _rows in compared_pairs(a):
        label = (a.orders, lhs.shape(), rhs.shape())
        assert len(variants(lhs)) > 3 and len(variants(rhs)) > 3, label
        for x, y in [(lhs, rhs)] + [(lhs, v) for v in variants(rhs)] + \
                [(v, rhs) for v in variants(lhs)]:
            assert_same_difference(x, y, label)
            assert_same_difference(y, x, label)


@EVERY_MODULE
def test_constant_table_differences_match_row_walk_reference(make):
    # K = 1 against a Gauss sum K (both 1 on the trivial module): equal pairs are proved
    # from the tags, and a pair that differs by one scale or one phase gets the row
    # walk's witness, both ways round
    a = make()
    tab = weil._tables(a)
    m = generator_matrices(a)
    lhs = m["T"] @ m["S"] @ m["T"]
    rhs = (m["S_dag"] @ m["Z"]) @ (m["T_inv"] @ m["S_dag"])
    alpha, beta, r, c, k, p, q = rhs.data
    assert lhs.shape() == rhs.shape() == CONSTANT and set(lhs.data[4]) == {1}
    assert (set(k) == {1}) == (a.order() == 1)
    n, mod, mid = tab.n, tab.mod, tab.n // 2

    def tagged(scale, alpha, beta, k):
        return weil.WeilMatrix(a, scale, "quadratic", (alpha, beta, r, c, k, p, q))

    def bumped(v):
        return v[:mid] + [(v[mid] + 1) % mod] + v[mid + 1:]

    # equal: a constant moved from the phases to the scale, or from K to the scale
    doubled = tab.kid(tab.objs[k[0]] * 2)
    equal = [rhs, tagged(rhs.scale * e_frac(F(-2, mod)), tab.vadd(alpha, [1] * n),
                         tab.vadd(beta, [1] * n), k),
             tagged(rhs.scale * F(1, 2), alpha, beta, [doubled] * n)]
    differ = [rhs.scaled(e_frac(F(1, mod))), rhs.scaled(-1), tagged(rhs.scale, bumped(alpha), beta, k),
              tagged(rhs.scale, alpha, bumped(beta), k), tagged(rhs.scale, alpha, beta, [doubled] * n)]
    for y in equal + differ:
        for u, v in ((lhs, y), (y, lhs)):
            assert_same_difference(u, v, a.orders)
    for y in equal:
        assert weil._EQUALITIES[(CONSTANT, CONSTANT)](tab, lhs.data, y.data, lhs.scale.reduce(),
                                                      y.scale.reduce())


STRUCTURED_PAIRS = {("monomial", "monomial"), (VARIES, "monomial"), ("monomial", VARIES),
                    (CONSTANT, CONSTANT)}


@pytest.mark.parametrize("make", [lambda: profile_module((("h", 2), ("c", 3))),
                                  lambda: profile_module((("h", 8), ("c", 2))),
                                  lambda: fqm.hyperbolic_module(31)],
                         ids=["h2c3", "h8c2", "H(31)"])
def test_structured_comparisons_build_no_rows(make):
    # every relation is decided from the tags: the braid relation, two constant K,
    # included
    a = make()
    pairs = compared_pairs(a)
    assert [(x.shape(), y.shape(), rows) for x, y, rows in pairs if rows] == []
    assert all((x.shape(), y.shape()) in STRUCTURED_PAIRS for x, y, _rows in pairs)


def random_sl2(rng, bound=40):
    """A seeded random matrix of SL2(Z) with entries of absolute value at most bound."""
    while True:
        c, d = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if gcd(c, d) != 1:
            continue
        if c == 0:
            a, b = d, rng.randint(-bound, bound)
        else:
            # a = d^-1 mod c, shifted by a random multiple of c
            a = (pow(d, -1, abs(c)) if abs(c) > 1 else 0) + c * rng.randint(-1, 1)
            b = (a * d - 1) // c
        if max(map(abs, (a, b))) <= bound:
            return (a, b), (c, d)


@EVERY_MODULE
def test_rho_of_matches_word_reference(make):
    # seeded random M: rho_of is monomial for both branch bits exactly when c = 0, and
    # equals the word folded by dense_matmul_reference for a seeded bit (one M above
    # order 16, where the dense reference takes seconds)
    a = make()
    rng = random.Random("rho_of:%s:%s" % (a.orders, a.signature()))
    for _ in range(3 if a.order() <= 16 else 1):
        m, bit = random_sl2(rng), rng.randrange(2)
        got = [weil.rho_of(a, weil.MetaplecticElement(m, b)) for b in (0, 1)]
        assert {x.tag for x in got} == {"monomial" if m[1][0] == 0 else "quadratic"}, m
        assert got[bit] == rho_of_reference(a, weil.MetaplecticElement(m, bit)), (m, bit)
        assert got[1 - bit] == got[bit].scaled(e_frac(F(-a.signature(), 2))), (m, bit)


@EVERY_MODULE
def test_rho_of_cocycle(make):
    # rho(M) rho(g) = rho(M g) for g in {S, T, Z}, the branch bit by the exact cocycle
    a = make()
    rng = random.Random("cocycle:%s:%s" % (a.orders, a.signature()))
    gens = [(g, weil.rho_of(a, g)) for g in (weil.gen_S(), weil.gen_T(), weil.gen_Z())]
    for _ in range(3):
        m = random_sl2(rng)
        for bit in (0, 1):
            g = weil.MetaplecticElement(m, bit)
            r = weil.rho_of(a, g)
            for h, rh in gens:
                assert r @ rh == weil.rho_of(a, g @ h), (g, h)


@pytest.mark.parametrize("profile", [(("h", 3),), (("h", 2), ("c", 3)), (("c", 8),),
                                     (("h", 2), ("h", 2))],
                         ids=lambda p: "".join("%s%d" % b for b in p))
def test_adjoint_and_q_multiple_against_brute_force(profile):
    # (f x, y) = (x, f* y) for additive index maps; q_multiple finds c*q and nothing else
    a = profile_module(profile)
    tab = weil._tables(a)
    maps = [tab.mul(1), tab.mul(-1), tab.mul(5), generator_matrices(a)["neg"].data[0]]
    try:
        maps.append(generator_matrices(a)["phi_r"].data[0])
    except KeyError:
        pass
    for f in maps:
        adj = tab.adjoint(f)
        assert all(tab.pair[f[x]][y] == tab.pair[x][adj[y]]
                   for x in range(tab.n) for y in range(tab.n)), f
    # x -> k*x is its own adjoint
    for k in (1, -1, 5):
        assert tab.adjoint(tab.mul(k)) == tab.mul(k), k
    if tab.n > 2:
        # 1 and n - 1 swapped: not additive, so without an adjoint
        swapped = [0, tab.n - 1] + list(range(2, tab.n - 1)) + [1]
        assert tab.images(swapped) is None and tab.adjoint(swapped) is None
    for c in range(tab.mod):
        got = tab.q_multiple([c * v % tab.mod for v in tab.q])
        assert [got * v % tab.mod for v in tab.q] == [c * v % tab.mod for v in tab.q]
    bumped = list(tab.q)
    bumped[-1] = (bumped[-1] + 1) % tab.mod
    assert tab.q_multiple(bumped) is None
