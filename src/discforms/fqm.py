"""Finite quadratic modules: finite abelian groups with a Q/Z-valued quadratic form.

A module is presented by generator orders and stores one form, the integer
form: the level N and N*Q(g_i), N*(g_i, g_j) in [0, N). Equality, hashing, Q
values, pairings and the Weil layer's index tables all read it; q_values and
bilinear are Fraction views in [0, 1), built on each read. Construction is
integer algebra, made canonical in one place, _from_forms. The histogram, the
moments of q_moments, the Gauss sums (cyclo.gauss_sum) and the signature are
read from the module's one structure kind: a direct_sum is a _Sum, read from
its summands; hyperbolic_module(n) is a _Hyperbolic, with closed forms; any
other module (a Gram matrix, a subquotient) is a _Walk, which walks its
coordinates once and runs milgram_signature. negate keeps the kind.
Elements are coordinate tuples. A subgroup is the Hermite normal form of its
integer lattice, so complements and subquotients are integer linear algebra:
a subquotient solves against the Hermite rows of H^perp by forward substitution
and reads its sections from a Smith form, with no Fraction. Only
isotropic_subgroups enumerates elements, guarded by BRUTE_FORCE_BOUND; its
results are cached per module and order.
"""

from fractions import Fraction
from functools import cache
from itertools import chain, product
from math import gcd, lcm, prod
from operator import mul

from . import cyclo
from ._intmat import (even_gram, factorization, hermite_rows, identity, integer, is_prime,
                      kernel_basis, mat_mul, mat_vec, rational, shape, smith_normal_form,
                      solve_hermite, transpose)
from .errors import ConsistencyError, PreconditionError

BRUTE_FORCE_BOUND = 10_000
# Construction refuses larger modules, so that the first invariant read stays
# bounded: without orthogonal structure the Q-value histogram is one pass over all
# elements, and the Gauss sum read from it is reduced once to its canonical form,
# O(level * omega(level)); the signature's magnitude check then multiplies two
# few-term numbers. Picard table rows n <= 1000 have order 2*n^2, level <= 4*n,
# and read both invariants from their two summands.
LEVEL_BOUND = 5_000
ORDER_BOUND = 4_000_000


class FqmElement:
    """Element of a finite quadratic module, in generator coordinates."""

    # _nq is N*Q(x), kept by module.nq_value on its first read; _row is the
    # pairing row N*(x, g_j), kept by content for its reference element
    __slots__ = ("module", "coords", "_nq", "_row")

    def __init__(self, module, coords):
        self.module = module
        self.coords = tuple(c % d for c, d in zip(coords, module.orders))
        self._nq = None
        self._row = None

    def __add__(self, other):
        self._same(other)
        return FqmElement(self.module, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._same(other)
        return FqmElement(self.module, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FqmElement(self.module, tuple(-c for c in self.coords))

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return FqmElement(self.module, tuple(n * c for c in self.coords))

    __rmul__ = __mul__

    def _same(self, other):
        if self.module != other.module:
            raise PreconditionError("elements belong to different modules")

    def is_zero(self):
        return not any(self.coords)

    def order(self):
        return lcm(*(d // gcd(d, c) for c, d in zip(self.coords, self.module.orders)))

    def q(self):
        return self.module.q_value(self)

    def bil(self, other):
        return self.module.bilinear_value(self, other)

    def __eq__(self, other):
        return (isinstance(other, FqmElement) and self.coords == other.coords
                and self.module == other.module)

    def __hash__(self):
        return hash((self.module._hash, self.coords))

    def __repr__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class FiniteQuadraticModule:
    """Finite abelian group with a non-degenerate quadratic form into Q/Z."""

    def __init__(self, orders, q_values, bilinear):
        orders = shape(orders, "generator orders", lambda d: integer(d, "generator orders", 1),
                       None)
        q_values = shape(q_values, "Q values", lambda q: rational(q, "Q value"), None)
        bilinear = shape(bilinear, "bilinear matrix", lambda b: rational(b, "pairing"), None, None)
        # the integer form at the lcm N of the denominators: N*Q(g_i) and N*(g_i, g_j)
        n = lcm(*(q.denominator for q in q_values),
                *(b.denominator for row in bilinear for b in row))
        self._install(orders, n, tuple(int(n * q) for q in q_values),
                      tuple(tuple(int(n * b) for b in row) for row in bilinear))
        self._validate()

    @classmethod
    def _from_forms(cls, orders, level, nq, nb, structure=None):
        """A module from an integer form, unvalidated; the caller vouches for int orders.

        level may be any common multiple N of the denominators, and nq, nb any ints
        congruent to N*Q(g_i), N*(g_i, g_j) mod N: _install makes the form canonical.
        structure is the module's kind, _Walk when omitted.
        """
        out = cls.__new__(cls)
        out._install(orders, level, nq, nb, structure)
        return out

    def _install(self, orders, level, nq, nb, structure=None):
        """The form divided by g = gcd(level, nq, nb) and reduced mod level/g, caches, bounds."""
        g = gcd(level, *nq, *chain.from_iterable(nb))
        level //= g
        nq = tuple([x // g % level for x in nq])
        nb = tuple([tuple([x // g % level for x in row]) for row in nb])
        self.orders = orders
        self._key = (orders, level, nq, nb)
        self._hash = hash(self._key)
        self._level = level
        self._nq = nq
        self._nb = nb
        self._elements = None
        self._histogram = None
        self._signature = None
        # cyclo.gauss_sum's values G(c), keyed by c mod level
        self._gauss = {}
        # the Fractions k/N that q_value returns, by k, built on first use
        self._q_values = {}
        # isotropic_subgroups by order, built on first use
        self._isotropic = {}
        # the fields of series records on this module, by text, coords and
        # exponent (qseries._mu_entry), built on first use
        self._vocabulary = {}
        # the index tables of the Weil layer (weil._tables), built on first use
        self._weil_tables = None
        # the structure kind the invariants are read from, and negate's result
        self._structure = structure or _WALK
        self._negation = None
        if self.order() > ORDER_BOUND:
            raise PreconditionError("module order %d exceeds the bound %d"
                                    % (self.order(), ORDER_BOUND))
        if level > LEVEL_BOUND:
            raise PreconditionError("module level %d exceeds the bound %d" % (level, LEVEL_BOUND))

    # -- construction checks -------------------------------------------------

    def _validate(self):
        # on the integer form: values in [0, 1) at level N are equal, or 0 mod 1,
        # exactly when N times them are
        orders, nq, nb, n = self.orders, self._nq, self._nb, self._level
        r = len(orders)
        if len(nq) != r or len(nb) != r:
            raise PreconditionError("inconsistent presentation sizes")
        for i in range(r):
            if (nb[i][i] - 2 * nq[i]) % n:
                raise PreconditionError("diagonal pairing must equal 2*Q on generators")
            if orders[i] ** 2 * nq[i] % n:
                raise PreconditionError("Q value incompatible with generator order")
            for j in range(r):
                if nb[i][j] != nb[j][i]:
                    raise PreconditionError("bilinear matrix must be symmetric")
                if orders[i] * nb[i][j] % n:
                    raise PreconditionError("pairing incompatible with generator order")
        # non-degenerate: no x other than 0 pairs to 0 with every generator
        if any(c % d for x in _perp_rows(self, identity(r)) for c, d in zip(x, self.orders)):
            raise PreconditionError("quadratic form is degenerate")

    # -- basic data -----------------------------------------------------------

    @property
    def rank(self):
        return len(self.orders)

    def order(self):
        return prod(self.orders)

    def level(self):
        return self._level

    @property
    def q_values(self):
        """The Q(g_i) as Fractions in [0, 1), read from the integer form."""
        n = self._level
        return tuple(Fraction(x, n) for x in self._nq)

    @property
    def bilinear(self):
        """The pairings (g_i, g_j) as Fractions in [0, 1), read from the integer form."""
        n = self._level
        return tuple(tuple(Fraction(x, n) for x in row) for row in self._nb)

    def elementary_divisors(self):
        """Invariant factors d_1 | d_2 | ... of the underlying group."""
        d, _u, _v = smith_normal_form([[self.orders[i] if i == j else 0
                                        for j in range(self.rank)] for i in range(self.rank)])
        return tuple(x for x in sorted(d) if x > 1)

    def signature(self):
        """Signature mod 8 (cached), read from the structure kind."""
        if self._signature is None:
            self._signature = self._structure.signature(self)
        return self._signature

    # -- elements --------------------------------------------------------------

    def zero(self):
        return FqmElement(self, (0,) * self.rank)

    def element(self, coords):
        """The element with these coordinates, read as ints and reduced mod the orders."""
        # a tuple of ints, as the library passes, is taken as it is
        ints = type(coords) is tuple
        if ints:
            for c in coords:
                if type(c) is not int:
                    ints = False
                    break
        if not ints:
            coords = shape(coords, "coordinates", lambda c: integer(c, "coordinates"), None)
        if len(coords) != self.rank:
            raise PreconditionError("coordinate length mismatch")
        return FqmElement(self, coords)

    def generators(self):
        return [self.element(tuple(int(i == j) for j in range(self.rank)))
                for i in range(self.rank)]

    def elements(self):
        """All elements, in lexicographic coordinate order (cached)."""
        if self._elements is None:
            self._elements = tuple(FqmElement(self, c)
                                   for c in product(*(range(d) for d in self.orders)))
        return self._elements

    def nq_value(self, x):
        """The integer N*Q(x) mod N, with N = level(); kept on x when x.module is self."""
        own = x.module is self
        if own and x._nq is not None:
            return x._nq
        v = self._nq_of(x.coords)
        if own:
            x._nq = v
        return v

    def _nq_of(self, c):
        """The integer N*Q(x) mod N, with N = level(), of the x with coordinates c."""
        nq, nb = self._nq, self._nb
        v = 0
        for i, ci in enumerate(c):
            if ci:
                v += ci * ci * nq[i]
                row = nb[i]
                for j in range(i + 1, len(c)):
                    if c[j]:
                        v += ci * c[j] * row[j]
        return v % self._level

    def q_value(self, x):
        """Q(x) in [0, 1), read from the integer form N*Q with N = level().

        Each value k/N is built once per module, and every x with that value
        gets the same Fraction.
        """
        k = self.nq_value(x)
        q = self._q_values.get(k)
        if q is None:
            q = self._q_values[k] = Fraction(k, self._level)
        return q

    def q_histogram(self):
        """(N, counts) with N = level() and counts[k] = #{x : Q(x) = k/N} (cached).

        Read from the structure kind; no element is built.
        """
        if self._histogram is None:
            self._histogram = self._structure.histogram(self)
        return self._histogram

    def q_moments(self):
        """(|A|, the sum of N*Q(x) over A, #{x : Q(x) = 0}) with N = level(), N*Q(x) in [0, N).

        Read from the structure kind, with no histogram for H(n) or for a sum
        with a small summand such as <1/4> + H(n).
        """
        kind = self._structure
        return self.order(), kind.total(self), kind.count(self, 0)

    def nq_values(self, choices):
        """N*Q(x) mod N, with N = level(), for the x with x_i in choices[i].

        The values come in itertools.product(*choices) order, so with
        choices = [range(d) for d in orders] they follow elements().
        """
        return [v for row in self._nq_rows(choices) for v in row]

    def _count_q_values(self, choices):
        """counts[k] = #{x : Q(x) = k/N} over the x with x_i in choices[i]."""
        counts = [0] * self._level
        for row in self._nq_rows(choices):
            for v in row:
                counts[v] += 1
        return tuple(counts)

    def _nq_rows(self, choices):
        """The values of nq_values, one list per prefix x_0..x_{r-2}.

        A prefix recursion: fixing x_0..x_{i-1} leaves N*Q of the prefix and
        its pairings N*(prefix, g_j) with the later generators, so the last
        coordinate costs one multiply-add per value.
        """
        n, nq, nb = self._level, self._nq, self._nb
        r = len(choices)
        if r == 0:
            yield [0]
            return

        def walk(i, v, pair):
            q, p = nq[i], pair[i]
            if i == r - 1:
                yield [(v + c * (c * q + p)) % n for c in choices[i]]
                return
            row = nb[i]
            for c in choices[i]:
                yield from walk(i + 1, (v + c * (c * q + p)) % n,
                                [(pair[j] + c * row[j]) % n for j in range(r)])

        yield from walk(0, 0, [0] * r)

    def _pairing_row(self, c):
        """(N*(x, g_j) mod N)_j for the coordinates c of x, with N = level()."""
        n = self._level
        return [sum(ci * row[j] for ci, row in zip(c, self._nb)) % n for j in range(len(c))]

    def bilinear_value(self, x, y):
        """(x, y) in [0, 1), read from the integer form N*(g_i, g_j) with N = level()."""
        return Fraction(sum(map(mul, x.coords, self._pairing_row(y.coords))) % self._level,
                        self._level)

    # -- misc --------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteQuadraticModule) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FiniteQuadraticModule(orders=%s)" % (self.orders,)

    def describe(self):
        """Plain-text descriptor: divisors, generator Q values, pairing rows."""
        lines = ["divisors: " + ",".join(str(d) for d in self.orders)]
        for i, q in enumerate(self.q_values):
            lines.append("Q(g%d)=%d/%d" % (i + 1, q.numerator, q.denominator))
        for row in self.bilinear:
            lines.append(" ".join("%d/%d" % (b.numerator, b.denominator) for b in row))
        return "\n".join(lines)


class Subgroup:
    """Subgroup H of a module, stored as the Hermite normal form of its lattice.

    hnf holds the rows of the unique Hermite form of L_H = {x in Z^r : x mod
    orders in H}, which contains diag(orders). The rows with pivot p_i < d_i =
    orders[i] are the generators g_i, and H is the set of sums c_i*g_i with
    0 <= c_i < d_i/p_i; the element tuple is built on request.
    """

    def __init__(self, module, elements):
        elts = tuple(module.element(c) for c in sorted(set(_coords_of(module, elements))))
        self._span(module, [x.coords for x in elts])
        if self.order != len(elts):
            raise PreconditionError("element set is not closed under addition")
        self._elements = elts

    def _span(self, module, rows):
        self.module = module
        self.hnf = hermite_rows(rows, module.orders)
        self._steps = [(row, d // row[i])
                       for i, (row, d) in enumerate(zip(self.hnf, module.orders)) if row[i] < d]
        self.generators = tuple(module.element(row) for row, _n in self._steps)
        self.order = prod(n for _row, n in self._steps)
        self._elements = None

    @staticmethod
    def _spanned(module, rows):
        """The subgroup generated by the given coordinate rows."""
        h = Subgroup.__new__(Subgroup)
        h._span(module, rows)
        return h

    @staticmethod
    def from_generators(module, generators):
        return Subgroup._spanned(module, _coords_of(module, generators))

    @property
    def elements(self):
        """All elements, in lexicographic coordinate order (cached)."""
        if self._elements is None:
            orders = self.module.orders
            coords = [(0,) * len(orders)]
            for row, n in self._steps:
                coords = [tuple((a + c * b) % d for a, b, d in zip(x, row, orders))
                          for x in coords for c in range(n)]
            self._elements = tuple(FqmElement(self.module, c) for c in sorted(coords))
        return self._elements

    def contains(self, x):
        """x is in H exactly when adding it leaves the Hermite form unchanged."""
        _require_of(self.module, x, "element")
        return hermite_rows(self.hnf + (x.coords,), self.module.orders) == self.hnf

    def is_isotropic(self):
        """Q vanishes on the generators and they pair to 0 with each other.

        Read from the integer form: N*Q(g) and the pairing rows N*(g, g_j), N = level.
        """
        a = self.module
        n = a.level()
        gens = self.generators
        for i, g in enumerate(gens):
            if a.nq_value(g):
                return False
            row = a._pairing_row(g.coords)
            if any(sum(map(mul, row, k.coords)) % n for k in gens[:i]):
                return False
        return True

    def __add__(self, other):
        if self.module != other.module:
            raise PreconditionError("subgroups of different modules")
        return Subgroup._spanned(self.module, self.hnf + other.hnf)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.module == other.module
                and self.hnf == other.hnf)

    def __hash__(self):
        return hash((self.module._hash, self.hnf))

    def __repr__(self):
        return "Subgroup(order=%d, gens=%s)" % (self.order, list(self.generators))


class Automorphism:
    """Q-preserving group automorphism, as an integer matrix on coordinates."""

    def __init__(self, module, matrix):
        self.module = module
        r = module.rank
        self.matrix = shape(matrix, "matrix", lambda x: integer(x, "matrix entries"), r, r)
        for i in range(r):
            for j in range(r):
                if (self.matrix[i][j] * module.orders[j]) % module.orders[i]:
                    raise PreconditionError("matrix does not define an endomorphism")
        # on the integer form: N*Q(g_i) and N*(g_i, g_j) at N = level()
        imgs = [self(g) for g in module.generators()]
        n, nq, nb = module.level(), module._nq, module._nb
        for i in range(r):
            if module.nq_value(imgs[i]) != nq[i]:
                raise PreconditionError("map does not preserve the quadratic form")
            row = module._pairing_row(imgs[i].coords)
            for j in range(r):
                if sum(map(mul, imgs[j].coords, row)) % n != nb[i][j]:
                    raise PreconditionError("map does not preserve the pairing")
        if Subgroup._spanned(module, [x.coords for x in imgs]).order != module.order():
            raise PreconditionError("map is not bijective")

    def __call__(self, x):
        _require_of(self.module, x, "element")
        return self.module.element(tuple(
            sum(self.matrix[i][j] * x.coords[j] for j in range(self.module.rank))
            for i in range(self.module.rank)))


def identity_automorphism(module):
    return Automorphism(module, identity(module.rank))


def negation_automorphism(module):
    return Automorphism(module, [[-int(i == j) for j in range(module.rank)]
                                 for i in range(module.rank)])


# -- constructors ----------------------------------------------------------------


def trivial_module():
    """The module of order 1. It is H(1), and reads its invariants from H(n)'s closed forms."""
    return FiniteQuadraticModule._from_forms((), 1, (), (), _HYPERBOLIC)


def cyclic_module(n, q):
    """Z/n with Q(generator) = q; requires the induced pairing non-degenerate."""
    q = rational(q, "quadratic value")
    return FiniteQuadraticModule((n,), (q,), ((2 * q,),))


def hyperbolic_module(n):
    """Discriminant form of the hyperbolic plane rescaled by n: (Z/n)^2 with Q(a,b)=ab/n."""
    n = integer(n, "generator orders", 1)
    if n == 1:
        return trivial_module()
    # valid by construction: Q(a, b) = ab/n pairs a with b perfectly, so only the bounds are checked
    return FiniteQuadraticModule._from_forms((n, n), n, (0, 0), ((0, 1), (1, 0)), _HYPERBOLIC)


def matrix_model_module(p):
    """(Z/p)^4 from the 2x2 integer matrices with p*det as the quadratic form.

    Coordinates (c11, c12, c21, c22) stand for the class of (1/p)*[[c11,c12],[c21,c22]].
    """
    p = integer(p, "generator orders", 1)
    out = FiniteQuadraticModule._from_forms((p, p, p, p), p, (0, 0, 0, 0), (
        (0, 0, 0, 1), (0, 0, -1, 0), (0, -1, 0, 0), (1, 0, 0, 0)))
    out._validate()
    return out


def fqm_from_gram_with_maps(gram):
    """Discriminant form of an even Gram matrix, with the coordinate projection.

    Returns (module, to_coords, gen_vectors): to_coords sends a rational vector
    in the dual lattice to module coordinates; gen_vectors are dual-lattice
    representatives of the module generators. The form is built from integers.
    """
    gram = even_gram(gram)
    n = len(gram)
    d, u, v = smith_normal_form(gram)
    kept = [i for i in range(n) if d[i] > 1]
    # generator i is column i of v over d[i]: Q(g_i) = w_ii/(2 d_i^2), (g_i, g_j) = w_ij/(d_i d_j)
    gens = [[Fraction(v[r][i], d[i]) for r in range(n)] for i in kept]
    w = mat_mul(mat_mul(transpose(v), gram), v)
    top = max(d, default=1)  # every d_i divides it, and the form is read at the level 2*top^2
    module = FiniteQuadraticModule._from_forms(
        tuple(d[i] for i in kept), 2 * top * top, tuple(w[i][i] * (top // d[i]) ** 2 for i in kept),
        tuple(tuple(2 * w[i][j] * (top // d[i]) * (top // d[j]) for j in kept) for i in kept))
    module._validate()

    def to_coords(vec):
        gv = [sum(gram[r][s] * Fraction(vec[s]) for s in range(n)) for r in range(n)]
        if any(x.denominator != 1 for x in gv):
            raise PreconditionError("vector is not in the dual lattice")
        w = mat_vec(u, [int(x) for x in gv])
        return module.element(tuple(w[i] for i in kept))

    return module, to_coords, gens


def fqm_from_gram(gram):
    """Discriminant form L'/L of a non-degenerate even Gram matrix."""
    return fqm_from_gram_with_maps(gram)[0]


def direct_sum(a, b):
    """Orthogonal direct sum, generators of a followed by generators of b.

    The sum's kind is _Sum(a, b), and its integer form is theirs at the level
    N_a*N_b. Only the order and level bounds are checked: the sum of two valid
    modules is valid.
    """
    fa, fb = b._level, a._level
    ia, ib = [0] * a.rank, [0] * b.rank
    return FiniteQuadraticModule._from_forms(
        a.orders + b.orders, fa * fb, [x * fa for x in a._nq] + [x * fb for x in b._nq],
        [[x * fa for x in row] + ib for row in a._nb] + [ia + [x * fb for x in row] for row in b._nb],
        _Sum(a, b))


def negate(a):
    """Same group with the quadratic form -Q, of the kind a._structure.negated() (cached).

    The negation of a valid module is valid; only the bounds are checked.
    """
    if a._negation is None:
        a._negation = FiniteQuadraticModule._from_forms(
            a.orders, a._level, tuple(-x for x in a._nq),
            tuple(tuple(-x for x in row) for row in a._nb), a._structure.negated())
    return a._negation


# -- invariants -------------------------------------------------------------------


def milgram_signature(a):
    """Signature mod 8, extracted from the quadratic Gauss sum.

    The sum over the module of e(Q(x)) must have squared magnitude equal to the
    order; the phase, an exact eighth root of unity, is the signature.
    FiniteQuadraticModule.signature runs this pass only for the _Walk kind;
    _Sum and _Hyperbolic carry the proof, so this stays the oracle of their route.
    """
    g = cyclo.gauss_sum(a, 1)
    if (g * g.conjugate()).rational_value() != a.order():
        raise ConsistencyError("Gauss sum magnitude check failed: degenerate module?")
    for s in range(8):
        x = g * cyclo.root_of_unity(-s, 8)
        if (x - x.conjugate()).is_zero():
            # x is real with x^2 = |A| >= 1; its float sums M = lcm(8, level) terms at most, of
            # total size |A|: error < M*|A|*2^-52 < 10^-4 under the bounds, far below 1/2
            f = x.to_complex().real
            if abs(f) < 0.5:
                raise ConsistencyError("signature phase too close to zero in floating point")
            if f > 0:
                return s
    raise ConsistencyError("no admissible signature phase found")


def check_weight_parity(a, k):
    """Require 2k = sig (mod 4) for the weight k.

    Under this condition the central element acts on the symmetrized
    subspace spanned by e_x + e_{-x} by a scalar.
    """
    two_k = 2 * rational(k, "weight")
    if two_k.denominator != 1 or (int(two_k) - a.signature()) % 4:
        raise PreconditionError("weight fails the parity condition 2k = sig mod 4")


def two_torsion_q_moments(a):
    """(|A[2]|, the sum of N*Q(x) over A[2], #{x in A[2] : Q(x) = 0}) as in q_moments.

    A[2] = {x : 2x = 0} has the coordinates x_i in {0, d_i/2}, with d_i/2 only
    for even d_i, so it has at most 2^rank elements; their values are read
    directly, whatever the structure of the module.
    """
    nq = a.nq_values([(0, d // 2) if d % 2 == 0 else (0,) for d in a.orders])
    return len(nq), sum(nq), nq.count(0)


def _convolve(ha, hb):
    """The histogram of Q_a + Q_b at N = lcm(N_a, N_b), from (N_a, counts_a) and (N_b, counts_b).

    Only the nonzero bins are paired.
    """
    (na, ca), (nb, cb) = ha, hb
    n = lcm(na, nb)
    fa, fb = n // na, n // nb
    left = [(i * fa, x) for i, x in enumerate(ca) if x]
    right = [(j * fb, y) for j, y in enumerate(cb) if y]
    out = [0] * n
    for i, x in left:
        for j, y in right:
            k = i + j
            out[k - n if k >= n else k] += x * y
    return n, tuple(out)


@cache
def _hyperbolic_weights(n):
    """The pairs (g, w_g) with w_g = g * phi(n/g), over the divisors g of n (cached).

    phi(n/g) is the number of x mod n with gcd(x, n) = g, and for such an x,
    y -> xy covers the multiples of g, g times each; w_g is multiplicative, so
    the pairs are built prime by prime from the factorization of n.
    """
    out = [(1, 1)]
    for p, e in factorization(n):
        # the exponent of p in g is i, so that phi(p^(e-i)) = p^(e-i) - p^(e-i-1) for i < e
        out = [(g * p ** i, w * p ** i * (p ** (e - i) - p ** (e - i - 1) if i < e else 1))
               for g, w in out for i in range(e + 1)]
    return tuple(out)


def _hyperbolic_histogram(n):
    """(n, counts) for H(n): counts[k] = #{(x, y) : xy = k mod n}.

    counts[k] is the sum of w_g over the g dividing gcd(k, n).
    """
    counts = [0] * n
    for g, w in _hyperbolic_weights(n):
        for k in range(0, n, g):
            counts[k] += w
    return n, tuple(counts)


# -- structure kinds ------------------------------------------------------------------
# A module's _structure reads, at its level N: the histogram; total, the sum of
# N*Q(x) in [0, N), count(k) = #{x : N*Q(x) = k} and tail(k) = #{x : N*Q(x) >= k};
# G(c) for 0 <= c < N, canonical (see cyclo.gauss_sum); the signature; and, by
# negated(), the kind of negate(a). The module keeps the histogram, G(c) and signature.


class _Walk:
    """The default kind: one pass over the coordinates, and milgram_signature."""

    def histogram(self, a):
        return a._level, a._count_q_values([range(d) for d in a.orders])

    def total(self, a):
        return sum(k * x for k, x in enumerate(a.q_histogram()[1]))

    def count(self, a, k):
        return a.q_histogram()[1][k]

    def tail(self, a, k):
        return sum(a.q_histogram()[1][k:])

    def gauss(self, a, c):
        # sum_k counts[k] * e(c*k/N), with integer coefficients, reduced once
        n, counts = a.q_histogram()
        exps = [(c * k % n, x) for k, x in enumerate(counts) if x]
        g = gcd(n, *(e for e, _x in exps))
        out = {}
        for e, x in exps:
            out[e // g] = out.get(e // g, 0) + x
        return cyclo.CyclotomicNumber._normalized(n // g, out).reduce()

    def signature(self, a):
        return milgram_signature(a)

    def negated(self):
        return self


class _Hyperbolic(_Walk):
    """H(n) by closed forms: the x with gcd(x, n) = g give w_g pairs (x, y) on each
    multiple of g mod n. -H(n) is isometric to H(n) by (x, y) -> (x, -y).
    """

    def histogram(self, a):
        return _hyperbolic_histogram(a._level)

    def total(self, a):
        # the multiples i*g, i < n/g, sum to g*(n/g)*(n/g - 1)/2
        n = a._level
        return sum(w * g * (n // g) * (n // g - 1) // 2 for g, w in _hyperbolic_weights(n))

    def count(self, a, k):
        return sum(w for g, w in _hyperbolic_weights(a._level) if k % g == 0)

    def tail(self, a, k):
        # the multiples of g in [k, n)
        n = a._level
        return sum(w * (n // g + (-k // g)) for g, w in _hyperbolic_weights(n))

    def gauss(self, a, c):
        # G(c) = n*gcd(c, n), a rational at the modulus n/gcd(c, n)
        n = a._level
        g = gcd(c, n)
        return cyclo.CyclotomicNumber._normalized(n // g, {0: n * g})

    def signature(self, a):
        return 0


_WALK, _HYPERBOLIC = _Walk(), _Hyperbolic()
# A sum with a summand of level at most this reads its counts from that summand's values
SMALL_LEVEL = 8


class _Sum(_Walk):
    """A direct sum of its summands (a, b), kept nested; its invariants are read from theirs.

    The histogram convolves theirs and the signature adds theirs. G(c) is
    their product, reduced: the values of Q on the sum are sums of theirs, so
    its least modulus is the lcm of theirs, the product's. The small summand,
    a if its level is at most SMALL_LEVEL, else b if b's is, shifts the
    other's counts by its values; without one, the histogram answers.
    """

    def __init__(self, a, b):
        self.summands = (a, b)
        self.split = ((a, b) if a._level <= SMALL_LEVEL
                      else (b, a) if b._level <= SMALL_LEVEL else None)

    def histogram(self, a):
        return _convolve(*(s.q_histogram() for s in self.summands))

    def gauss(self, a, c):
        x, y = self.summands
        return (cyclo.gauss_sum(x, c) * cyclo.gauss_sum(y, c)).reduce()

    def signature(self, a):
        x, y = self.summands
        return (x.signature() + y.signature()) % 8

    def negated(self):
        return _Sum(*map(negate, self.summands))

    def _shifts(self, m):
        """(values, other, count, tail) at the sum's level m, from self.split = (small, other).

        values holds the pairs (v, #{x : m*Q(x) = v}) over the small summand. The
        other answers at its level N = m/f, so count and tail convert: m*Q(y) = k
        when f | k and N*Q(y) = k/f, and m*Q(y) >= k when N*Q(y) >= ceil(k/f).
        """
        small, other = self.split
        (n, counts), f, kind = small.q_histogram(), m // other._level, other._structure
        return ([(j * (m // n), x) for j, x in enumerate(counts) if x], other,
                lambda k: 0 if k % f else kind.count(other, k // f),
                lambda k: kind.tail(other, -(-k // f)))

    def total(self, a):
        if self.split is None:
            return super().total(a)
        m = a._level
        values, other, _count, tail = self._shifts(m)
        order, t = other.order(), m // other._level * other._structure.total(other)
        # (v + q) mod m is v + q, or v + q - m when q >= m - v
        return sum(x * (order * v + t - m * tail(m - v)) for v, x in values)

    def count(self, a, k):
        if self.split is None:
            return super().count(a, k)
        m = a._level
        values, _other, count, _tail = self._shifts(m)
        return sum(x * count((k - v) % m) for v, x in values)

    def tail(self, a, k):
        if self.split is None:
            return super().tail(a, k)
        m = a._level
        values, other, _count, tail = self._shifts(m)
        order = other.order()
        # (v + q) mod m >= k: q in [k - v, m - v) before the wrap, or q >= m + k - v after it
        return sum(x * (order - tail(m - v) + tail(m + k - v) if k <= v
                        else tail(k - v) - tail(m - v)) for v, x in values)


def orbit_representatives(a):
    """Lexicographically first representatives of the {x, -x} orbits."""
    return [x for x in a.elements() if x.coords <= (-x).coords]


# -- subgroup-lattice operations ----------------------------------------------------


def isotropic_subgroups(a, order):
    """All totally isotropic subgroups of the given order, in a fixed order.

    A frontier walk from the trivial subgroup over the elements of A, guarded
    by BRUTE_FORCE_BOUND: H grows by each x with Q(x) = 0 that pairs to 0 with
    H's generators, which for isotropic H is exactly when H + <x> is
    isotropic. Results are sorted lexicographically by their element lists
    and cached per order; each call returns a new list.
    """
    if a.order() > BRUTE_FORCE_BOUND:
        raise PreconditionError("isotropic subgroup enumeration limited to modules of order <= %d"
                                % BRUTE_FORCE_BOUND)
    order = integer(order, "subgroup orders", 1)
    if a.order() % order:
        raise PreconditionError("order must divide the module order")
    found = a._isotropic.get(order)
    if found is None:
        found = a._isotropic[order] = tuple(_isotropic_walk(a, order))
    return list(found)


def _isotropic_walk(a, order):
    """The frontier walk of isotropic_subgroups, sorted."""
    n = a.level()
    iso = [(x, a._pairing_row(x.coords)) for x in a.elements() if a.nq_value(x) == 0]
    frontier = [Subgroup._spanned(a, [])]
    seen = set(frontier)
    found = []
    while frontier:
        nxt = []
        for h in frontier:
            if h.order == order:
                found.append(h)
                continue
            # an x in H gives H + <x> = H, which is seen
            inside = {y.coords for y in h.elements}
            for x, row in iso:
                if x.coords in inside or any(sum(map(mul, row, g.coords)) % n
                                             for g in h.generators):
                    continue
                k = Subgroup._spanned(a, h.hnf + (x.coords,))
                if k.order > order or order % k.order or k in seen:
                    continue
                seen.add(k)
                nxt.append(k)
        frontier = nxt
    found.sort(key=lambda h: tuple(x.coords for x in h.elements))
    return found


def _require_of(a, x, what):
    """Refuse x, a subgroup, element or automorphism named by what, unless its module equals a.

    The identity test comes first, so an object of a itself costs no key compare.
    """
    if x.module is not a and x.module != a:
        raise PreconditionError("%s does not belong to the module" % what)


def _coords_of(a, xs):
    """The coordinate tuples of the elements xs, refusing an element of another module."""
    out = []
    for x in xs:
        _require_of(a, x, "element")
        out.append(x.coords)
    return out


def orthogonal_complement(a, g):
    """Subgroup of all x pairing integrally with every element of g."""
    _require_of(a, g, "subgroup")
    return Subgroup._spanned(a, _perp_rows(a, g.hnf))


def _perp_rows(a, rows):
    """Rows that span, with diag(orders), the lattice of the x pairing to 0 with the rows h_k.

    It is the integer kernel of [M | -N*I] cut to x, M[k][j] = N*(h_k, g_j), N = level.
    """
    n, r = a.level(), a.rank
    m = [a._pairing_row(h) + [-n * (i == k) for k in range(r)] for i, h in enumerate(rows)]
    return [v[:r] for v in kernel_basis(m)]


def subquotient(a, h):
    """The subquotient H^perp/H with its projection and a section.

    Returns (b, proj, sect): proj maps elements of H^perp onto b, sect picks
    coset representatives, and proj(sect(x)) == x for all x in b. For the
    trivial subgroup the module itself is returned with identity maps.
    Everything is integer algebra. With P the Hermite rows of H^perp, H = T*P
    is solved by forward substitution, and u*T*v = diag(d) is T's Smith form.
    The rows of v^-1*P are a basis of L_{H^perp} in which L_H has the basis
    d_i*(row i); those with d_i > 1 are the sections. Since u*H = diag(d)*v^-1*P,
    row i is row i of u*H divided exactly by d_i, and no inverse is formed.
    b's form is the parent's N*Q and N*(x, y) on the sections, with no Fraction.
    proj(x) is (y*v)_i mod d_i for the integer y with y*P = x.
    """
    _require_of(a, h, "subgroup")
    if not h.is_isotropic():
        raise PreconditionError("subgroup is not isotropic")
    if h.order == 1:
        return a, (lambda x: x), (lambda x: x)
    n, r = a.level(), a.rank
    perp = orthogonal_complement(a, h).hnf
    t = [solve_hermite(perp, row) for row in h.hnf]
    if None in t:
        raise ConsistencyError("subgroup lattice is not contained in complement lattice")
    d, u, v = smith_normal_form(t)
    kept = [i for i in range(r) if d[i] > 1]
    uh = mat_mul(u, h.hnf)
    sections = [a.element(tuple(x // d[i] for x in uh[i])) for i in kept]
    rows = [a._pairing_row(x.coords) for x in sections]
    b = FiniteQuadraticModule._from_forms(
        tuple(d[i] for i in kept), n, tuple(a.nq_value(x) for x in sections),
        tuple(tuple(sum(map(mul, x.coords, row)) for row in rows) for x in sections))
    b._validate()
    if b.order() * h.order ** 2 != a.order():
        raise ConsistencyError("subquotient order bookkeeping failed")
    proj_cols = [([row[i] for row in v], d[i]) for i in kept]
    sect_cols = [[x.coords[j] for x in sections] for j in range(r)]

    def proj(x):
        y = solve_hermite(perp, x.coords)
        if y is None:
            raise PreconditionError("element is not in the orthogonal complement")
        return b.element(tuple(sum(map(mul, y, col)) % di for col, di in proj_cols))

    def sect(x):
        return a.element(tuple(sum(map(mul, x.coords, col)) for col in sect_cols))

    for x in b.generators():
        if proj(sect(x)) != x:
            raise ConsistencyError("section is not a right inverse of the projection")
    return b, proj, sect


# -- the cyclic filtration ------------------------------------------------------------


def content(a, e, lam):
    """gcd(N*(e,lam), N) for an isotropic element e of exact order N.

    Read from the integer form at L = level(): L*(e, lam) is k, and N*(e, lam) = N*k/L.
    The pairing row of e is kept on e, so a loop over lam computes it once.
    """
    _require_of(a, e, "reference element")
    _require_of(a, lam, "element")
    n = e.order()
    if a.nq_value(e):
        raise PreconditionError("reference element must be isotropic")
    level = a.level()
    if e._row is None:
        e._row = a._pairing_row(e.coords)
    c, rest = divmod(n * (sum(map(mul, lam.coords, e._row)) % level), level)
    if rest:
        raise ConsistencyError("pairing with e must lie in (1/N)Z")
    return gcd(c % n, n) or n


def cyclic_subgroup_id(a, e, d):
    """The isotropic subgroup generated by (N/d)*e, of order d."""
    _require_of(a, e, "reference element")
    n = e.order()
    if a.nq_value(e):
        raise PreconditionError("reference element must be isotropic")
    d = integer(d, "values of d", 1)
    if n % d:
        raise PreconditionError("d must divide the order of e")
    h = Subgroup.from_generators(a, ((n // d) * e,))
    if h.order != d:
        raise ConsistencyError("cyclic subgroup has unexpected order")
    return h


def phi_r(a, r, pair=None):
    """Automorphism (x, y) -> (r*x, r**(-1)*y) on a distinguished hyperbolic block.

    pair selects the two generator indices carrying the block; when omitted the
    first pair of generators with orders (n, n), vanishing Q, pairing 1/n, and
    orthogonal to everything else is used.
    """
    r = integer(r, "multipliers")
    if pair is None:
        pair = _find_hyperbolic_pair(a)
    i, j = shape(pair, "pair", lambda i: integer(i, "generator indices", 0), 2)
    if max(i, j) >= a.rank:
        raise PreconditionError("generator indices must be below the rank %d" % a.rank)
    n = a.orders[i]
    if a.orders[j] != n:
        raise PreconditionError("selected generators have different orders")
    if gcd(r, n) != 1:
        raise PreconditionError("multiplier must be invertible modulo the block order")
    rstar = pow(r, -1, n)
    mat = [[int(s == t) for t in range(a.rank)] for s in range(a.rank)]
    mat[i][i] = r % n
    mat[j][j] = rstar
    return Automorphism(a, mat)


def _find_hyperbolic_pair(a):
    nq, nb, level = a._nq, a._nb, a._level
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            n = a.orders[i]
            if a.orders[j] != n or nq[i] or nq[j] or nb[i][j] * n != level:
                continue
            if not any(nb[i][k] or nb[j][k] for k in range(a.rank) if k not in (i, j)):
                return i, j
    raise PreconditionError("no distinguished hyperbolic block found")


# -- prime-level normal forms ----------------------------------------------------------


class MatrixModelSplit:
    """Prime-level module split as (definite block) + (2x2 matrix model).

    The matrix-model coordinates are the last four; they represent the class
    of (1/p) * [[c11, c12], [c21, c22]] with p*det as the quadratic form.
    """

    def __init__(self, p, definite_block=None):
        p = integer(p, "levels")
        if not is_prime(p):
            raise PreconditionError("level must be prime")
        self.p = p
        self.definite_block = definite_block if definite_block is not None else trivial_module()
        if self.definite_block.level() not in (1, p):
            raise PreconditionError("definite block must have level dividing the prime")
        self.module = direct_sum(self.definite_block, matrix_model_module(p))
        if self.module.level() != p:
            raise PreconditionError("split module does not have prime level")

    def normal_form(self, mu):
        """The normal-form representative sharing order and Q value with mu."""
        if mu.module != self.module:
            raise PreconditionError("element does not belong to the split module")
        rd = self.definite_block.rank
        if mu.is_zero():
            return self.module.zero()
        q = mu.q()
        c = q * self.p
        if c.denominator != 1:
            raise ConsistencyError("Q value is not p-torsion")
        coords = (0,) * rd + (1, 0, 0, int(c) % self.p)
        out = self.module.element(coords)
        if out.q() != q:
            raise ConsistencyError("normal form does not preserve Q")
        return out
