"""Finite quadratic modules: finite abelian groups with a Q/Z-valued quadratic form.

A module is presented by generator orders, the form values Q(g_i), and the
bilinear pairings (g_i, g_j); every value is an exact Fraction reduced to
[0, 1). Each module also keeps the integer form N*Q(g_i), N*(g_i, g_j) with
N = level(), from which Q values, pairings and the Weil layer's index tables
are computed. Construction is integer algebra; the histogram, Gauss sums and
signature are built when first read, from the module's orthogonal structure
where it has one: a direct_sum convolves its summands' Q-value histograms,
multiplies their Gauss sums (cyclo.gauss_sum) and adds their signatures, and
hyperbolic_module(n) has closed forms for all three; negate keeps both kinds of
structure. Any other module (from a Gram matrix, a subquotient) walks its
coordinates once for its histogram and runs milgram_signature.
Elements are coordinate tuples. A subgroup is the Hermite normal form of its
integer lattice, so complements and subquotients are integer linear algebra:
a subquotient solves against the Hermite rows of H^perp by forward substitution
and reads its sections from a Smith form, with no Fraction matrix. Only
isotropic_subgroups enumerates elements, guarded by BRUTE_FORCE_BOUND; its
results are cached per module and order.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from . import cyclo
from ._intmat import (even_gram, hermite_rows, identity, is_prime, kernel_basis, mat_mul,
                      mat_vec, smith_normal_form, solve_hermite, transpose)
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
_ZERO = Fraction(0)


def _mod1(x):
    return Fraction(x) % 1


def _order(d):
    """A generator order as an int; it must be a positive integer."""
    n = int(d)
    if n != d:
        raise PreconditionError("generator orders must be integers")
    if n < 1:
        raise PreconditionError("generator orders must be positive")
    return n


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
        orders = tuple(map(_order, orders))
        q_values = tuple(_mod1(q) for q in q_values)
        bilinear = tuple(tuple(_mod1(b) for b in row) for row in bilinear)
        # the integer form: N = level, N*Q(g_i) and N*(g_i, g_j)
        n = lcm(*(q.denominator for q in q_values),
                *(b.denominator for row in bilinear for b in row))
        self._install(orders, q_values, bilinear, n, tuple(int(n * q) for q in q_values),
                      tuple(tuple(int(n * b) for b in row) for row in bilinear))
        self._validate()

    @classmethod
    def _from_forms(cls, orders, q_values, bilinear, level, nq, nb):
        """A module from a presentation that is already canonical, unvalidated.

        The caller vouches for a valid module, with int orders, Fractions in
        [0, 1), level N the lcm of their denominators, and N times them as nq and nb.
        """
        out = cls.__new__(cls)
        out._install(orders, q_values, bilinear, level, nq, nb)
        return out

    def _install(self, orders, q_values, bilinear, level, nq, nb):
        """The data of a canonical presentation, the empty caches, the bounds."""
        self.orders = orders
        self.q_values = q_values
        self.bilinear = bilinear
        self._key = (orders, q_values, bilinear)
        self._hash = hash(self._key)
        self._level = level
        self._nq = nq
        self._nb = nb
        self._elements = None
        self._histogram = None
        self._signature = None
        # cyclo.gauss_sum's values G(c), keyed by c mod level
        self._gauss = {}
        # isotropic_subgroups by order, built on first use
        self._isotropic = {}
        # the index tables of the Weil layer (weil._tables), built on first use
        self._weil_tables = None
        # the orthogonal structure the invariants are read from: the two summands
        # of a direct_sum, or that the module is isometric to H(level), as
        # hyperbolic_module(n) and its negation are
        self._summands = None
        self._hyperbolic = False
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
        if any(len(row) != r for row in nb):
            raise PreconditionError("bilinear matrix is not square")
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

    def elementary_divisors(self):
        """Invariant factors d_1 | d_2 | ... of the underlying group."""
        d, _u, _v = smith_normal_form([[self.orders[i] if i == j else 0
                                        for j in range(self.rank)] for i in range(self.rank)])
        return tuple(x for x in sorted(d) if x > 1)

    def signature(self):
        """Signature mod 8 (cached), read from the orthogonal structure where there is one.

        G(1) = e(sig/8)*sqrt|A| is multiplicative over direct sums, so a sum's
        signature is the sum of its summands', and H(n) has G(1) = n, signature 0.
        Any other module runs milgram_signature.
        """
        if self._signature is None:
            if self._summands:
                a, b = self._summands
                self._signature = (a.signature() + b.signature()) % 8
            elif self._hyperbolic:
                self._signature = 0
            else:
                self._signature = milgram_signature(self)
        return self._signature

    # -- elements --------------------------------------------------------------

    def zero(self):
        return FqmElement(self, (0,) * self.rank)

    def element(self, coords):
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
        nq, nb = self._nq, self._nb
        c = x.coords
        v = 0
        for i, ci in enumerate(c):
            if ci:
                v += ci * ci * nq[i]
                row = nb[i]
                for j in range(i + 1, len(c)):
                    if c[j]:
                        v += ci * c[j] * row[j]
        v %= self._level
        if own:
            x._nq = v
        return v

    def q_value(self, x):
        """Q(x) in [0, 1), read from the integer form N*Q with N = level()."""
        return Fraction(self.nq_value(x), self._level)

    def q_histogram(self):
        """(N, counts) with N = level() and counts[k] = #{x : Q(x) = k/N} (cached).

        A direct sum convolves the histograms of its summands, and H(n) has a
        closed form; any other module takes one pass over the coordinates in
        integer arithmetic. No element is built.
        """
        if self._histogram is None:
            if self._summands:
                h = _convolve(*(s.q_histogram() for s in self._summands))
            elif self._hyperbolic:
                h = _hyperbolic_histogram(self._level)
            else:
                h = self._level, self._count_q_values([range(d) for d in self.orders])
            self._histogram = h
        return self._histogram

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
        elts = tuple(module.element(c) for c in sorted(set(x.coords for x in elements)))
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
        return Subgroup._spanned(module, [g.coords for g in generators])

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
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        r = module.rank
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
    out = FiniteQuadraticModule._from_forms((), (), (), 1, (), ())
    out._hyperbolic = True
    return out


def cyclic_module(n, q):
    """Z/n with Q(generator) = q; requires the induced pairing non-degenerate."""
    return FiniteQuadraticModule((n,), (q,), ((_mod1(2 * Fraction(q)),),))


def hyperbolic_module(n):
    """Discriminant form of the hyperbolic plane rescaled by n: (Z/n)^2 with Q(a,b)=ab/n."""
    n = _order(n)
    if n == 1:
        return trivial_module()
    # valid by construction: Q(a, b) = ab/n pairs a with b perfectly, so only the bounds are checked
    h = Fraction(1, n)
    out = FiniteQuadraticModule._from_forms((n, n), (_ZERO, _ZERO), ((_ZERO, h), (h, _ZERO)),
                                            n, (0, 0), ((0, 1), (1, 0)))
    out._hyperbolic = True
    return out


def matrix_model_module(p):
    """(Z/p)^4 from the 2x2 integer matrices with p*det as the quadratic form.

    Coordinates (c11, c12, c21, c22) stand for the class of (1/p)*[[c11,c12],[c21,c22]].
    """
    p = _order(p)
    h = Fraction(1, p)
    z = Fraction(0)
    bil = ((z, z, z, h), (z, z, -h % 1, z), (z, -h % 1, z, z), (h, z, z, z))
    return FiniteQuadraticModule((p, p, p, p), (0, 0, 0, 0), bil)


def fqm_from_gram_with_maps(gram):
    """Discriminant form of an even Gram matrix, with the coordinate projection.

    Returns (module, to_coords, gen_vectors): to_coords sends a rational vector
    in the dual lattice to module coordinates; gen_vectors are dual-lattice
    representatives of the module generators.
    """
    gram = even_gram(gram)
    n = len(gram)
    d, u, v = smith_normal_form(gram)
    kept = [i for i in range(n) if d[i] > 1]
    # generator i is column i of v over d[i], so its pairings are read from v^T G v
    gens = [[Fraction(v[r][i], d[i]) for r in range(n)] for i in kept]
    w = mat_mul(mat_mul(transpose(v), gram), v)
    module = FiniteQuadraticModule(tuple(d[i] for i in kept),
                                   tuple(Fraction(w[i][i], 2 * d[i] ** 2) for i in kept),
                                   tuple(tuple(Fraction(w[i][j], d[i] * d[j]) for j in kept)
                                         for i in kept))

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

    The sum records its summands, and its histograms, Gauss sums and signature
    are read from theirs. It takes their canonical Fractions as they are and
    their integer forms scaled to the level N = lcm(N_a, N_b). Only the order
    and level bounds are checked: the sum of two valid modules is consistent
    and non-degenerate.
    """
    n = lcm(a._level, b._level)
    fa, fb = n // a._level, n // b._level
    za, zb = (_ZERO,) * a.rank, (_ZERO,) * b.rank
    ia, ib = (0,) * a.rank, (0,) * b.rank
    out = FiniteQuadraticModule._from_forms(
        a.orders + b.orders, a.q_values + b.q_values,
        tuple(row + zb for row in a.bilinear) + tuple(za + row for row in b.bilinear),
        n, tuple(x * fa for x in a._nq) + tuple(x * fb for x in b._nq),
        tuple(tuple(x * fa for x in row) + ib for row in a._nb)
        + tuple(ia + tuple(x * fb for x in row) for row in b._nb))
    out._summands = (a, b)
    return out


def negate(a):
    """Same group with the quadratic form -Q, keeping the orthogonal structure of a.

    The negation of a direct sum is the sum of the negated summands, on the same
    presentation. -H(n) is isometric to H(n) by (x, y) -> (x, -y), so it keeps
    H(n)'s closed forms. The negation of a valid module is valid; only the bounds
    are checked.
    """
    if a._summands:
        return direct_sum(*map(negate, a._summands))
    n = a._level
    out = FiniteQuadraticModule._from_forms(
        a.orders, tuple(-q % 1 for q in a.q_values),
        tuple(tuple(-x % 1 for x in row) for row in a.bilinear),
        n, tuple(-x % n for x in a._nq), tuple(tuple(-x % n for x in row) for row in a._nb))
    out._hyperbolic = a._hyperbolic
    return out


# -- invariants -------------------------------------------------------------------


def milgram_signature(a):
    """Signature mod 8, extracted from the quadratic Gauss sum.

    The sum over the module of e(Q(x)) must have squared magnitude equal to the
    order; the phase, an exact eighth root of unity, is the signature.
    FiniteQuadraticModule.signature runs this pass only on a module with no
    orthogonal structure; the summands of a direct sum and H(n) carry the
    proof, so this stays the oracle of their route.
    """
    g = cyclo.gauss_sum(a, 1)
    if (g * g.conjugate()).rational_value() != a.order():
        raise ConsistencyError("Gauss sum magnitude check failed: degenerate module?")
    for s in range(8):
        x = g * cyclo.e_frac(Fraction(-s, 8))
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
    two_k = 2 * Fraction(k)
    if two_k.denominator != 1 or (int(two_k) - a.signature()) % 4:
        raise PreconditionError("weight fails the parity condition 2k = sig mod 4")


def two_torsion_q_histogram(a):
    """(N, counts) as in q_histogram, over the 2-torsion A[2] = {x : 2x = 0}.

    A[2] has the coordinates x_i in {0, d_i/2}, with d_i/2 only for even d_i.
    As in q_histogram, a direct sum convolves its summands' histograms and
    H(n) has a closed form.
    """
    if a._summands:
        return _convolve(*map(two_torsion_q_histogram, a._summands))
    n = a.level()
    if a._hyperbolic:
        # (0, 0), (n/2, 0), (0, n/2) and (n/2, n/2) for even n, with N*Q(x, y) = xy
        counts = [0] * n
        halves = (0, n // 2) if n % 2 == 0 else (0,)
        for x in halves:
            for y in halves:
                counts[x * y % n] += 1
        return n, tuple(counts)
    return n, a._count_q_values([(0, d // 2) if d % 2 == 0 else (0,) for d in a.orders])


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


def _hyperbolic_histogram(n):
    """(n, counts) for H(n): counts[k] = #{(x, y) : xy = k mod n}.

    For fixed x, y -> xy covers the multiples of g = gcd(x, n), g times each,
    so counts[k] = sum of g * phi(n/g) over the g dividing gcd(k, n); phi(n/g)
    is the number of x with gcd(x, n) = g.
    """
    counts = [0] * n
    for g, m in Counter(gcd(x, n) for x in range(n)).items():
        for k in range(0, n, g):
            counts[k] += g * m
    return n, tuple(counts)


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
    """Refuse x, a subgroup, element or automorphism named by what, unless its module equals a."""
    if x.module != a:
        raise PreconditionError("%s does not belong to the module" % what)


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
    sections = [a.element([x // d[i] for x in uh[i]]) for i in kept]
    rows = [a._pairing_row(x.coords) for x in sections]
    b = FiniteQuadraticModule([d[i] for i in kept],
                              [Fraction(a.nq_value(x), n) for x in sections],
                              [[Fraction(sum(map(mul, x.coords, row)) % n, n) for row in rows]
                               for x in sections])
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
        return a.element([sum(map(mul, x.coords, col)) for col in sect_cols])

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
    if pair is None:
        pair = _find_hyperbolic_pair(a)
    i, j = pair
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
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            n = a.orders[i]
            if a.orders[j] != n or a.q_values[i] != 0 or a.q_values[j] != 0:
                continue
            if a.bilinear[i][j] != Fraction(1, n):
                continue
            ok = all(a.bilinear[i][k] == 0 and a.bilinear[j][k] == 0
                     for k in range(a.rank) if k not in (i, j))
            if ok:
                return i, j
    raise PreconditionError("no distinguished hyperbolic block found")


# -- prime-level normal forms ----------------------------------------------------------


class MatrixModelSplit:
    """Prime-level module split as (definite block) + (2x2 matrix model).

    The matrix-model coordinates are the last four; they represent the class
    of (1/p) * [[c11, c12], [c21, c22]] with p*det as the quadratic form.
    """

    def __init__(self, p, definite_block=None):
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
