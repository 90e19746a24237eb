"""The argument contract of the public API, swept over every public callable.

The public functions and classes of fqm, weil, cyclo, qseries, lattice, lifts
and dims are found by introspection, and the METHODS that read arguments of
their own are added, with a valid instance as self. A parameter whose valid value (_valid) is
a library object (a module, element, subgroup, series, lattice, newform or
automorphism) always gets that object: a library object in the wrong slot is a
programming error outside the contract. Every other parameter (a scalar, a
text or a shape) in turn gets each value of WRONG, with valid values in the
other slots, under a 2 s alarm. The call must return or raise
PreconditionError; any other exception, or the alarm, breaks the contract.
"""

import inspect
import signal
from fractions import Fraction as F

import pytest

from discforms import cyclo, dims, fqm, lattice, lifts, qseries, weil
from discforms.errors import PreconditionError
from helpers import block

MODULES = (fqm, weil, cyclo, qseries, lattice, lifts, dims)
WRONG = (None, "x", 1.5, -1, 0, 7, [], [[1, 0]], (1,), F(1, 3), {})
LIBRARY = (fqm.FiniteQuadraticModule, fqm.FqmElement, fqm.Subgroup, fqm.Automorphism,
           qseries.VectorValuedQSeries, lattice.EvenLattice, lifts.ScalarQSeries,
           lifts.NewformData)
# FqmElement(module, coords) is the constructor that element arithmetic calls,
# and checks nothing; code outside fqm makes elements with module.element(coords)
SKIPPED = {"fqm.FqmElement"}
# Methods that read vectors or coordinates, by the class that defines them
METHODS = {(fqm, "FiniteQuadraticModule"): ("element",),
           (lattice, "EvenLattice"): ("bilinear", "q_value", "pairings", "in_dual")}


def _valid():
    """Valid arguments by parameter name; "module.callable.name" overrides a name."""
    a = fqm.hyperbolic_module(6)
    e = a.element((0, 1))  # isotropic, of order 6
    line = fqm.Subgroup.from_generators(a, [a.element((3, 0))])  # isotropic, of order 2
    f = qseries.VectorValuedQSeries(a, 6, 2)
    eta = lifts.eta_quotient({1: 6, 3: 6}, 6)  # the newform of level 3 and weight 6
    ident = weil.identity_matrix(a)
    lat = lattice.EvenLattice([[0, 1], [1, 0]])
    return {
        # library objects
        "a": a, "b": a, "module": a, "e": e, "lam": e, "g": line, "h": line, "f": f,
        "elements": [a.zero()], "subgroups": [line], "subgroup_or_elements": line,
        "parts": {1: f}, "definite_block": fqm.trivial_module(),
        "lat": lat, "series": eta,
        "nf": lifts.NewformData(eta, -1, 6, 3),
        "weil.aut_matrix.h": fqm.identity_automorphism(a),
        "fqm.FiniteQuadraticModule.element.self": a,
        "lattice.EvenLattice.bilinear.self": lat, "lattice.EvenLattice.q_value.self": lat,
        "lattice.EvenLattice.pairings.self": lat, "lattice.EvenLattice.in_dual.self": lat,
        "qseries.pairing_at.g": f,
        "qseries.up_arrow.g": qseries.VectorValuedQSeries(qseries.reduction(a, line)[0], 6, 2),
        "lifts.u_p.f": eta,
        "lifts.vector_lift_closed.a": eta, "lifts.vector_lift_closed.a_tilde": eta,
        "lifts.vector_lift_closed.module": lifts.lift_module(3, 2),
        # scalars, texts and shapes
        "n": 2, "p": 3, "k": 6, "q": F(1, 4), "r": 5, "d": 2, "t": 1, "c": 1, "m": 3,
        "order": 6, "pair": (0, 1), "weight": 6, "truncation": 2, "level": 3, "eps": -1,
        "kappa": 6, "exponents": {1: 24}, "nmax": 5, "n_values": [1, 2], "power": 1,
        "bit": 0, "mod": 4, "coeffs": {1: 1}, "witnesses": {},
        "orders": (2,), "q_values": (F(1, 4),), "bilinear": ((F(1, 2),),),
        "gram": [[2]], "matrix": ((1, 0), (0, 1)), "ell": [1, 0], "u": [1, 0], "v": [1, 0],
        "w": [0, 1], "coords": (0, 1),
        "mu": [0, 0], "search_bound": 2, "basis_rows": [[1, 0], [0, 1]],
        "d_gram": block(*[[[2, 1], [1, 2]]] * 3), "lam0": [1, 0, 1, 0, 1, 0, 1, 0, 0, 1],
        "text": qseries.write_series(f), "scale": ident.scale, "tag": ident.tag,
        "data": ident.data,
        "cyclo.root_of_unity.a": 1, "lattice.find_isotropic_with_ideal.n": 1,
        "weil.rho_of.g": ((1, 1), (0, 1)),
    }


def _public():
    """name -> callable for the public functions and classes defined in MODULES, and METHODS.

    A class that is a tuple is a result record, which stores any values.
    """
    out = {}
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            key = "%s.%s" % (short, name)
            if (name.startswith("_") or not callable(obj) or key in SKIPPED
                    or getattr(obj, "__module__", None) != module.__name__
                    or (inspect.isclass(obj) and issubclass(obj, tuple))):
                continue
            out[key] = obj
    for (module, cls), names in METHODS.items():
        short = module.__name__.rpartition(".")[2]
        for name in names:
            out["%s.%s.%s" % (short, cls, name)] = getattr(getattr(module, cls), name)
    return out


PUBLIC = _public()


def _is_library(x):
    """A library object, or a non-empty list or dict of them."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return bool(x) and all(map(_is_library, x))
    return isinstance(x, LIBRARY)


class _Alarm(Exception):
    pass


def _call(fn, kwargs):
    """The exception fn(**kwargs) raises, other than PreconditionError, or None."""
    def ring(_signum, _frame):
        raise _Alarm("no result within 2 s")

    old = signal.signal(signal.SIGALRM, ring)
    signal.alarm(2)
    try:
        fn(**kwargs)
    except PreconditionError:
        pass
    except Exception as exc:  # every other exception breaks the contract
        return exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return None


def test_the_sweep_reaches_every_module():
    assert {key.partition(".")[0] for key in PUBLIC} == {
        m.__name__.rpartition(".")[2] for m in MODULES}
    assert len(PUBLIC) > 60


@pytest.mark.parametrize("key", sorted(PUBLIC))
def test_wrong_arguments_are_refused_with_a_precondition_error(key):
    fn = PUBLIC[key]
    valid = _valid()
    params = list(inspect.signature(fn).parameters)
    missing = [p for p in params if "%s.%s" % (key, p) not in valid and p not in valid]
    assert not missing, "no valid value for %s of %s" % (missing, key)
    kwargs = {p: valid.get("%s.%s" % (key, p), valid.get(p)) for p in params}
    # the valid arguments give a result, so that each wrong value below is the only one
    fn(**kwargs)
    broken = []
    for p in params:
        if _is_library(kwargs[p]):
            continue
        for wrong in WRONG:
            exc = _call(fn, dict(kwargs, **{p: wrong}))
            if exc is not None:
                broken.append("%s=%r: %s: %s" % (p, wrong, type(exc).__name__, exc))
    assert not broken, "\n".join(broken)
