"""A module stores one form, the integer form; its Fractions are views.

Each module of the other suites is paired with the canonical Fractions that its
construction stands for, assembled in Fraction arithmetic and never read from
the module's form: the inputs of each validating FiniteQuadraticModule call (as
recorded), zero blocks between the summands of a direct sum, the pairing 1/n of
H(n), and -x mod 1 for a negation. The validated build from those Fractions
must agree with the module in its views, its equality and hash, and its
descriptor, and the module must hold no Fraction.
"""

import random
from fractions import Fraction as F

import pytest

from discforms import dims, fqm
from test_histogram_route import _random_sum
from test_subgroups import GRAMS, GRAM_MODULES, MODULES, isotropic_orders
from test_weil_products import TEST_WEIL_MODULES


def _canonical(orders, q_values, bilinear):
    return (tuple(int(d) for d in orders), tuple(F(q) % 1 for q in q_values),
            tuple(tuple(F(b) % 1 for b in row) for row in bilinear))


@pytest.fixture
def recorded(monkeypatch):
    """id(module) -> (module, canonical Fractions) for each validated construction."""
    seen = {}
    init = fqm.FiniteQuadraticModule.__init__

    def recording(self, orders, q_values, bilinear):
        orders, q_values, bilinear = tuple(orders), tuple(q_values), tuple(map(tuple, bilinear))
        init(self, orders, q_values, bilinear)
        # the module stays alive with its entry, so that its id is not reused
        seen[id(self)] = self, _canonical(orders, q_values, bilinear)

    monkeypatch.setattr(fqm.FiniteQuadraticModule, "__init__", recording)
    # table rows share one definite block; build it again, under the recording
    dims._definite_block.cache_clear()
    return seen


def _fractions(a, recorded):
    """The canonical Fractions of a's construction; a is no negation of an unrecorded module."""
    if id(a) in recorded:
        return recorded[id(a)][1]
    if a._summands:
        (oa, qa, ba), (ob, qb, bb) = (_fractions(s, recorded) for s in a._summands)
        za, zb = (F(0),) * len(oa), (F(0),) * len(ob)
        return oa + ob, qa + qb, tuple(r + zb for r in ba) + tuple(za + r for r in bb)
    assert a._hyperbolic, a
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
    """A Fraction anywhere in x, through containers and the attributes of modules."""
    if isinstance(x, F):
        return True
    if isinstance(x, fqm.FiniteQuadraticModule):
        x = vars(x)
    if isinstance(x, dict):
        return any(map(_holds_fraction, x)) or any(map(_holds_fraction, x.values()))
    if isinstance(x, (tuple, list)):
        return any(map(_holds_fraction, x))
    return False


def _with_negations(pairs):
    return [p for a, fractions in pairs for p in ((a, fractions),
                                                  (fqm.negate(a), _negated(fractions)))]


def _suite(name, recorded):
    """(module, canonical Fractions) pairs over one of the other test files' suites."""
    if name == "hyperbolic":
        modules = [fqm.hyperbolic_module(n) for n in range(1, 301)]
    elif name == "table_rows":
        modules = [dims.table_row_module(n) for n in range(1, 81)]
    elif name == "seeded_sums":
        modules = []
        for seed in range(6):
            rng = random.Random(9100 + seed)
            modules += [_random_sum(rng, with_hyperbolic=i % 2 == 1) for i in range(12)]
    elif name == "weil":
        modules = [make() for _name, make in TEST_WEIL_MODULES]
    elif name == "gram":
        modules = [fqm.fqm_from_gram(g) for g in GRAMS]
    else:
        modules = [fqm.subquotient(a, h)[0] for a in MODULES + GRAM_MODULES
                   for n in isotropic_orders(a)[1:] for h in fqm.isotropic_subgroups(a, n)]
    pairs = [(a, _fractions(a, recorded)) for a in modules]
    return _with_negations(pairs) if name in ("table_rows", "seeded_sums") else pairs


@pytest.mark.parametrize("name", ["hyperbolic", "table_rows", "seeded_sums", "weil", "gram",
                                  "subquotients"])
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
