"""A module stores one form, the integer form; its Fractions are views.

Each module of the other suites is paired with the canonical Fractions that its
construction stands for, assembled in Fraction arithmetic and never read from
the module's form: the inputs of each validating FiniteQuadraticModule call (as
recorded), the Fraction constructions that Gram modules, subquotients and the
matrix model were built from (the oracles in helpers.py), zero blocks between
the summands of a direct sum, the pairing 1/n of H(n), and -x mod 1 for a
negation. The validated build from those Fractions must agree with the module
in its views, its equality and hash, and its descriptor, and the module must
hold no Fraction. FiniteQuadraticModule._from_forms makes any integer form
canonical, and subquotients and the matrix model are built with no Fraction.
"""

import random
from fractions import Fraction as F

import pytest

from discforms import dims, fqm
from helpers import (gram_form_reference, matrix_model_form_reference,
                     subquotient_form_reference)
from test_histogram_route import _random_sum
from test_subgroups import GRAMS, GRAM_MODULES, MODULES, isotropic_orders
from test_weil_products import TEST_WEIL_MODULES


def _canonical(orders, q_values, bilinear):
    return (tuple(int(d) for d in orders), tuple(F(q) % 1 for q in q_values),
            tuple(tuple(F(b) % 1 for b in row) for row in bilinear))


@pytest.fixture
def recorded(monkeypatch):
    """id(module) -> (module, canonical Fractions) for each validated construction.

    A module built through FiniteQuadraticModule.__init__ is paired with its
    inputs; a Gram module, a nontrivial subquotient and the matrix model, built
    from the integer form, with the Fractions of their oracles.
    """
    seen = {}
    init = fqm.FiniteQuadraticModule.__init__
    from_gram, subquotient, matrix_model = (fqm.fqm_from_gram_with_maps, fqm.subquotient,
                                            fqm.matrix_model_module)

    def record(module, fractions):
        # the module stays alive with its entry, so that its id is not reused
        seen[id(module)] = module, _canonical(*fractions)

    def recording(self, orders, q_values, bilinear):
        orders, q_values, bilinear = tuple(orders), tuple(q_values), tuple(map(tuple, bilinear))
        init(self, orders, q_values, bilinear)
        record(self, (orders, q_values, bilinear))

    def recording_from_gram(gram):
        out = from_gram(gram)
        record(out[0], gram_form_reference(gram))
        return out

    def recording_subquotient(a, h):
        out = subquotient(a, h)
        if h.order > 1:
            record(out[0], subquotient_form_reference(a, h))
        return out

    def recording_matrix_model(p):
        out = matrix_model(p)
        record(out, matrix_model_form_reference(p))
        return out

    monkeypatch.setattr(fqm.FiniteQuadraticModule, "__init__", recording)
    monkeypatch.setattr(fqm, "fqm_from_gram_with_maps", recording_from_gram)
    monkeypatch.setattr(fqm, "subquotient", recording_subquotient)
    monkeypatch.setattr(fqm, "matrix_model_module", recording_matrix_model)
    # table rows share one definite block; build it again, under the recording
    dims._definite_block.cache_clear()
    return seen


def _fractions(a, recorded):
    """The canonical Fractions of a's construction; a is no negation of an unrecorded module."""
    if id(a) in recorded:
        return recorded[id(a)][1]
    if type(a._structure) is fqm._Sum:
        (oa, qa, ba), (ob, qb, bb) = (_fractions(s, recorded) for s in a._structure.summands)
        za, zb = (F(0),) * len(oa), (F(0),) * len(ob)
        return oa + ob, qa + qb, tuple(r + zb for r in ba) + tuple(za + r for r in bb)
    assert type(a._structure) is fqm._Hyperbolic, a
    if not a.orders:
        return (), (), ()
    h = F(1, a.orders[0])
    return a.orders, (F(0), F(0)), ((F(0), h), (h, F(0)))


def _negated(fractions):
    orders, q_values, bilinear = fractions
    return (orders, tuple(-q % 1 for q in q_values),
            tuple(tuple(-x % 1 for x in row) for row in bilinear))


def _describe(fractions):
    """The descriptor printed from canonical Fractions."""
    orders, q_values, bilinear = fractions
    lines = ["divisors: " + ",".join(str(d) for d in orders)]
    lines += ["Q(g%d)=%d/%d" % (i + 1, q.numerator, q.denominator)
              for i, q in enumerate(q_values)]
    lines += [" ".join("%d/%d" % (b.numerator, b.denominator) for b in row) for row in bilinear]
    return "\n".join(lines)


def _holds_fraction(x):
    """A Fraction anywhere in x, through containers and the attributes of modules and sums."""
    if isinstance(x, F):
        return True
    if isinstance(x, (fqm.FiniteQuadraticModule, fqm._Sum)):
        x = vars(x)
    if isinstance(x, dict):
        return any(map(_holds_fraction, x)) or any(map(_holds_fraction, x.values()))
    if isinstance(x, (tuple, list)):
        return any(map(_holds_fraction, x))
    return False


def _with_negations(pairs):
    return [p for a, fractions in pairs for p in ((a, fractions),
                                                  (fqm.negate(a), _negated(fractions)))]


def _seeded_sums():
    modules = []
    for seed in range(6):
        rng = random.Random(9100 + seed)
        modules += [_random_sum(rng, with_hyperbolic=i % 2 == 1) for i in range(12)]
    return modules


def _suite(name, recorded):
    """(module, canonical Fractions) pairs over one of the other test files' suites."""
    if name == "hyperbolic":
        modules = [fqm.hyperbolic_module(n) for n in range(1, 301)]
    elif name == "table_rows":
        modules = [dims.table_row_module(n) for n in range(1, 81)]
    elif name == "seeded_sums":
        modules = _seeded_sums()
    elif name == "weil":
        modules = [make() for _name, make in TEST_WEIL_MODULES]
    elif name == "gram":
        modules = [fqm.fqm_from_gram(g) for g in GRAMS]
    elif name == "matrix_model":
        modules = [fqm.MatrixModelSplit(p).module for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    else:
        modules = [fqm.subquotient(a, h)[0] for a in MODULES + GRAM_MODULES
                   for n in isotropic_orders(a)[1:] for h in fqm.isotropic_subgroups(a, n)]
    pairs = [(a, _fractions(a, recorded)) for a in modules]
    return _with_negations(pairs) if name in ("table_rows", "seeded_sums") else pairs


@pytest.mark.parametrize("name", ["hyperbolic", "table_rows", "seeded_sums", "weil", "gram",
                                  "matrix_model", "subquotients"])
def test_the_integer_form_is_the_only_stored_form(recorded, name):
    pairs = _suite(name, recorded)
    assert len(pairs) >= 9, name
    for a, fractions in pairs:
        b = fqm.FiniteQuadraticModule(*fractions)
        assert (a.orders, a.q_values, a.bilinear) == (b.orders, b.q_values, b.bilinear) \
            == fractions, a
        assert a == b and hash(a) == hash(b), a
        assert a._key == (a.orders, a.level(), a._nq, a._nb), a
        assert a.describe() == b.describe() == _describe(fractions), a
        assert not _holds_fraction(a) and not _holds_fraction(b), a


def _canonical_suites():
    """H(n) for n <= 50, table rows <= 20 and the seeded sums, with their negations."""
    modules = [fqm.hyperbolic_module(n) for n in range(1, 51)]
    modules += [dims.table_row_module(n) for n in range(1, 21)] + _seeded_sums()
    return modules + [fqm.negate(a) for a in modules]


def test_from_forms_makes_any_integer_form_canonical():
    # the form given at k*N, each value shifted by a multiple of k*N: value i goes to
    # k*x - (i + 1)*k*N for even i (negative) and k*x + (i + 1)*k*N for odd i (above k*N)
    for a in _canonical_suites():
        n, r = a.level(), a.rank
        for k in (2, 3, 12):
            def spread(x, i):
                return k * x + (-1) ** (i + 1) * (i + 1) * k * n

            b = fqm.FiniteQuadraticModule._from_forms(
                a.orders, k * n, tuple(spread(x, i) for i, x in enumerate(a._nq)),
                tuple(tuple(spread(x, r * i + j) for j, x in enumerate(row))
                      for i, row in enumerate(a._nb)))
            assert b._key == a._key and hash(b) == hash(a) and b == a, (a, k)


def _no_fraction(*args):
    raise AssertionError("a Fraction was built: %r" % (args,))


def test_subquotients_and_the_matrix_model_build_no_fraction(monkeypatch):
    cases = [(a, h, fqm.FiniteQuadraticModule(*subquotient_form_reference(a, h)))
             for a in MODULES + GRAM_MODULES for n in isotropic_orders(a)[1:]
             for h in fqm.isotropic_subgroups(a, n)]
    primes = (2, 3, 5, 7, 11, 13)
    models = [fqm.FiniteQuadraticModule(*matrix_model_form_reference(p)) for p in primes]
    assert len(cases) >= 100
    monkeypatch.setattr(fqm, "Fraction", _no_fraction)
    for a, h, ref in cases:
        b, proj, sect = fqm.subquotient(a, h)
        assert b._key == ref._key and hash(b) == hash(ref), (a, h)
        assert all(proj(sect(x)) == x for x in b.generators()), (a, h)
    for p, ref in zip(primes, models):
        b = fqm.matrix_model_module(p)
        assert b._key == ref._key and hash(b) == hash(ref), p
