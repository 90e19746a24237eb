"""The Weil representation of the metaplectic group on the group algebra C[A].

Rows and columns are indexed by the mixed-radix code sum x_i * stride_i of the
coordinates, which is the position of x in module.elements(). The integer
tables of a module (addition, negation and multiplication of codes, M*Q(x) and
the pairing exponents M*(x, y) at the common modulus M = lcm(8, level); see
_Tables) are built once and kept with the module, so that no FqmElement is
built on the product path.

A WeilMatrix is a factored scalar (the Gauss-sum normalization of S) times
entries that carry a structure tag:

- monomial: row x holds one root of unity e(ph(x)), in column src(x) (T^k, Z,
  the identity and automorphism matrices);
- quadratic: entries e(alpha(x) + beta(y) + (Rx, Cy)) * K[Px + Qy], where K
  holds n interned cyclotomic numbers (S, T^k S, S S^dagger, (S T)^3 and every
  rho(M) with c != 0). K is constant, as the 1 of S and the one Gauss sum of
  S T^c S with c a unit, or it varies.

R, C, P and Q, like src and dst, are index maps: lists of n codes, the code of
the image of each x (tab.mul(k) for x -> k*x, tab.ident for the identity).
Products, conjugate transposes and comparisons dispatch on the tags. A
monomial factor re-indexes the other factor in O(n); a quadratic matrix times
one with a constant K is again quadratic (see _quadratic_product), so rho(M),
a word in S and monomials, stays tagged. Constant K factor out of the sum
over the middle index, a closed form when the middle phase is c*Q with c a
unit (one Gauss sum, the phases in alpha, beta and the cross pairing) or 0
(one character sum per element order), else one transform of n histograms.
A constant K times a varying K is the conjugate transpose of that rule's
product B^dagger A^dagger. Any other pair is refused: K varies on both sides,
or a varying K on the left has a column map that is not a bijection.
Comparisons of two monomials, a varying K and a monomial, or two constant K
are proved from the tags; every other pair, and every pair not proved equal
that way, walks the rows with one zero test per distinct (exponent
difference, canonical entry, canonical entry) triple.
"""

import cmath
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add, mul, sub

from . import cyclo, fqm
from ._intmat import integer, shape
from .cyclo import CyclotomicNumber, root_of_unity
from .errors import ConsistencyError, PreconditionError


def _quarter_turns(c, d):
    """Arg(c*tau + d) on the upper half plane, in quarter turns.

    1 for c > 0 (the argument lies in (0, pi)), -1 for c < 0 (in (-pi, 0));
    for c = 0 the constant 0 when d > 0 and 2 when d < 0 (the principal
    argument pi, so the principal root of d is i*sqrt|d|).
    """
    if c:
        return 1 if c > 0 else -1
    return 0 if d > 0 else 2


def _branch_flip(cd1, cd2, cd3):
    """The cocycle bit of a product M1 M2 = M3 from the bottom rows (c, d).

    Principal roots satisfy sqrt(j(M1, M2 tau)) * sqrt(j(M2, tau)) =
    (-1)^k sqrt(j(M3, tau)), where the arguments add up as arg1 + arg2 =
    arg3 + 2*pi*k with k in {-1, 0, 1}, constant on the upper half plane.
    Over the quarter-turn classes of the three arguments, |q1 + q2 - q3| is
    at most 1 when k = 0 and at least 3 otherwise. This is Kubota's cocycle
    (Gelbart, LNM 530) written as sign cases on c and d, for the branch with
    sqrt(-1) = i.
    """
    v = _quarter_turns(*cd1) + _quarter_turns(*cd2) - _quarter_turns(*cd3)
    return int(abs(v) >= 3)


class MetaplecticElement:
    """Pair (M, phi) with M integral of determinant one and phi^2 = c*tau + d.

    The branch is recorded by one bit: 0 when phi is the principal square
    root, 1 when it is its negative. Products and inverses track the bit
    through the exact integer cocycle _branch_flip.
    """

    __slots__ = ("a", "b", "c", "d", "bit")

    def __init__(self, matrix, bit=0):
        (self.a, self.b), (self.c, self.d) = shape(
            matrix, "matrix", lambda x: integer(x, "matrix entries"), 2, 2)
        if self.a * self.d - self.b * self.c != 1:
            raise PreconditionError("matrix must have determinant one")
        if bit not in (0, 1):
            raise PreconditionError("the branch bit must be 0 or 1")
        self.bit = int(bit)

    @property
    def matrix(self):
        return ((self.a, self.b), (self.c, self.d))

    def phi_at(self, tau):
        return (-1) ** self.bit * cmath.sqrt(self.c * tau + self.d)

    def __matmul__(self, other):
        if not isinstance(other, MetaplecticElement):
            return NotImplemented
        m = ((self.a * other.a + self.b * other.c, self.a * other.b + self.b * other.d),
             (self.c * other.a + self.d * other.c, self.c * other.b + self.d * other.d))
        flip = _branch_flip((self.c, self.d), (other.c, other.d), m[1])
        return MetaplecticElement(m, self.bit ^ other.bit ^ flip)

    def inverse(self):
        m = ((self.d, -self.b), (-self.c, self.a))
        return MetaplecticElement(m, self.bit ^ _branch_flip((self.c, self.d), m[1], (0, 1)))

    def __pow__(self, n):
        n = integer(n, "metaplectic powers")
        out = MetaplecticElement(((1, 0), (0, 1)))
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        while n:
            if n & 1:
                out = out @ base
            n >>= 1
            if n:
                base = base @ base
        return out

    def __eq__(self, other):
        return (isinstance(other, MetaplecticElement)
                and self.matrix == other.matrix and self.bit == other.bit)

    def __repr__(self):
        return "MetaplecticElement(%s, bit=%d)" % (self.matrix, self.bit)


def gen_T():
    return MetaplecticElement(((1, 1), (0, 1)))


def gen_S():
    return MetaplecticElement(((0, -1), (1, 0)))


def gen_Z():
    return MetaplecticElement(((-1, 0), (0, -1)))


# -- index tables -----------------------------------------------------------------


# The tables hold two n x n integer arrays, and a transform of a product reads
# all of the pairing table, so time and memory grow as n^2: larger modules are
# refused before any table is built.
ORDER_BOUND = 2_500
# The number of histogram transforms a module keeps, oldest evicted first.
TRANSFORM_CACHE = 16
# The shapes of a quadratic matrix: K holds one entry index n times, or several.
CONSTANT, VARIES = "quadratic (K constant)", "quadratic (K varies)"


def _order_in(v, d):
    """The order of v in Z/d."""
    return d // gcd(v, d)


def _modulus(module):
    """The common modulus lcm(8, level) of the module's Weil matrices."""
    return lcm(8, module.level())


def _tables(module):
    """The module's _Tables, built on first use and kept with the module."""
    tab = module._weil_tables
    if tab is None:
        if module.order() > ORDER_BOUND:
            raise PreconditionError("module order %d exceeds the Weil representation bound %d"
                                    % (module.order(), ORDER_BOUND))
        tab = module._weil_tables = _Tables(module)
    return tab


class _Tables:
    """Integer tables of a module on the mixed-radix codes of its elements.

    Exponents are taken at M = lcm(8, level) and kept in [0, M): q[x] = M*Q(x)
    and pair[x][y] = M*(x, y); add[x][y] is the code of x + y, and gens[i]
    is the code of the i-th generator. An index map is a list of n codes:
    mul(k) is the map x -> k*x and ident = add[0] the identity. The entries K
    of quadratic matrices are interned by content: objs[k] is the k-th
    distinct cyclotomic number, with objs[0] = 0 and objs[1] = 1.
    """

    def __init__(self, module):
        orders = module.orders
        r = len(orders)
        self.n = n = module.order()
        self.mod = m = _modulus(module)
        self.exponent = lcm(1, *orders)
        strides = [1] * r
        for i in range(r - 2, -1, -1):
            strides[i] = strides[i + 1] * orders[i + 1]
        self._orders, self._strides = orders, strides
        self.gens = [s * (1 % d) for s, d in zip(strides, orders)]
        self._coords = coords = list(product(*(range(d) for d in orders)))
        self.fold = list(range(m)) * 3
        fold = self.fold.__getitem__
        # code c (> 0) is x + e_i for the code p = c - stride_i, i its last nonzero digit
        self._steps = steps = [None] * n
        for c in range(1, n):
            x = coords[c]
            i = max(k for k in range(r) if x[k])
            steps[c] = (i, c - strides[i])
        shifts = [[c + s if x[i] < d - 1 else c - (d - 1) * s for c, x in enumerate(coords)]
                  for i, (d, s) in enumerate(zip(orders, strides))]
        # the module's integer form N*(g_i, g_j), N*Q at N = level, rescaled to M
        s = m // module.level()
        gen_pair = [[s * sum(map(mul, x, row)) % m for x in coords] for row in module._nb]
        self.q = [s * v for v in module.nq_values([range(d) for d in orders])]
        self.add = add_rows = [list(range(n))]
        self.ident = add_rows[0]
        self.pair = pair = [[0] * n]
        for c in range(1, n):
            i, p = steps[c]
            add_rows.append(list(map(shifts[i].__getitem__, add_rows[p])))
            pair.append(list(map(fold, map(add, pair[p], gen_pair[i]))))
        # z by its pairings with the generators, which name it: the pairing is non-degenerate
        self._dual = {col: z for z, col in enumerate(zip(*(pair[g] for g in self.gens)))}
        self.zeros = [0] * n
        self.ones = [1] * n
        self._mul = {}
        normal = CyclotomicNumber._normalized
        self.roots = [normal(m, {e: 1}) for e in range(m)]
        self.objs = [normal(m, {}), self.roots[0]]
        self._kids = {(1, frozenset()): 0, (1, frozenset({(0, 1)})): 1}
        self._canon = [0, 1]
        self._transforms = {}

    # -- codes and index maps --------------------------------------------------

    def code(self, coords):
        return sum(map(mul, coords, self._strides))

    def mul(self, k):
        """The codes of k*x, in code order (cached)."""
        k %= self.exponent
        out = self._mul.get(k)
        if out is None:
            out = self._mul[k] = [self.code([k * v % d for v, d in zip(x, self._orders)])
                                  for x in self._coords]
        return out

    def linear_map(self, images):
        """The codes of sum x_i * images[i], from the codes of the generator images."""
        out = [0] * self.n
        add_rows = self.add
        for c, (i, p) in enumerate(self._steps[1:], 1):
            out[c] = add_rows[out[p]][images[i]]
        return out

    def is_unit(self, f):
        """Whether the index map f is a bijection."""
        return len(set(f)) == self.n

    def images(self, f, additive=False):
        """The codes of the generator images under f, or None when f is not additive.

        f is additive iff it is the linear map of its generator images. That is
        proved unless additive vouches for f, as it does for every map built by
        mul, pull, inverse, adjoint and linear_map from additive maps.
        """
        images = list(map(f.__getitem__, self.gens))
        return images if additive or self.linear_map(images) == f else None

    def inverse(self, f):
        """The inverse of a bijective index map f."""
        return sorted(range(self.n), key=f.__getitem__)

    def adjoint(self, f, additive=False):
        """The index map f* with (f x, y) = (x, f* y), or None when f is not additive.

        f*(g_j) is the z with (g_i, z) = (f g_i, g_j) for every generator g_i.
        additive vouches for f as in images. The maps x -> k*x of mul, and the
        identity, are their own adjoints.
        """
        if f is self.ident or any(f is g for g in self._mul.values()):
            return f
        images = self.images(f, additive)
        if images is None:
            return None
        pair = self.pair
        return self.linear_map([self._dual[tuple(pair[y][g] for y in images)]
                                for g in self.gens])

    def pull(self, vec, f):
        """The list x -> vec[f(x)]; for an index map vec, the composite x -> vec(f(x))."""
        return list(map(vec.__getitem__, f))

    # -- exponent vectors --------------------------------------------------------

    def vadd(self, a, b):
        return list(map(self.fold.__getitem__, map(add, a, b)))

    def vneg(self, a):
        m, fold = self.mod, self.fold
        return [fold[m - v] for v in a]

    # -- interned entries ----------------------------------------------------------

    def kid(self, x):
        """Index in objs of the entry x, a number at the modulus M (interned by its raw form)."""
        key = (x.den, frozenset(x.coeffs.items()))
        k = self._kids.get(key)
        if k is None:
            k = self._kids[key] = len(self.objs)
            self.objs.append(x)
        return k

    def canon(self, k):
        """Index in objs of the reduced form of objs[k] (cached for all indices up to k).

        Equal values share this index, and every zero entry maps to 0.
        """
        canon = self._canon
        while len(canon) <= k:
            canon.append(self.kid(self.objs[len(canon)].reduce()))
        return canon[k]

    def q_multiple(self, gamma):
        """The c with gamma = c*q, or None; c*Q is fixed by its values at g_i and g_i + g_j."""
        m, q, gens = self.mod, self.q, self.gens
        probe = gens + [self.add[g][h] for i, g in enumerate(gens) for h in gens[i + 1:]]
        c = next((c for c in range(m) if all(c * q[x] % m == gamma[x] for x in probe)), None)
        return c if c is not None and [c * v % m for v in q] == gamma else None

    def transform(self, k, gamma):
        """T with T[v] = sum_s K[s] e(gamma(s) + (s, v)) as raw sums, one entry index per v.

        K is given by its entry indices k, or is None and reads 1. Without K and
        with gamma = 0, row v is the character sum of v: n/o at each multiple of
        M/o, with o the order of v, so one entry is built per distinct order.
        Otherwise each row is one histogram of n terms, and the last
        TRANSFORM_CACHE results of this kind are kept.
        """
        m, objs, fold = self.mod, self.objs, self.fold.__getitem__
        normal = CyclotomicNumber._normalized
        out = []
        if k is None and not any(gamma):
            by_order = {}
            for o in (lcm(*map(_order_in, x, self._orders)) for x in self._coords):
                if o not in by_order:
                    by_order[o] = self.kid(normal(m, {j * (m // o): self.n // o for j in range(o)}))
                out.append(by_order[o])
            return out
        key = (k if k is None else tuple(k), tuple(gamma))
        hit = self._transforms.get(key)
        if hit is not None:
            return hit
        for row in self.pair:
            exps = map(fold, map(add, gamma, row))
            if k is None:
                out.append(self.kid(normal(m, dict(Counter(exps)))))
                continue
            terms = Counter(zip(k, exps)).items()
            den = lcm(*{objs[kid].den for (kid, _e), _c in terms})
            acc = {}
            for (kid, e), c in terms:
                x = objs[kid]
                c *= den // x.den
                for f, co in x.coeffs.items():
                    f += e
                    if f >= m:
                        f -= m
                    acc[f] = acc.get(f, 0) + co * c
            out.append(self.kid(CyclotomicNumber._over(m, acc, den)))
        if len(self._transforms) >= TRANSFORM_CACHE:
            del self._transforms[next(iter(self._transforms))]
        self._transforms[key] = out
        return out

    def times(self, k, k0):
        """The entry indices of the raw products objs[x] * objs[k0] for the entries x of k."""
        if k0 == 1:
            return k
        objs = self.objs
        out = {x: self.kid(objs[x] * objs[k0]) for x in set(k)}
        return list(map(out.__getitem__, k))

    def conjugate(self, k):
        """The entry indices of the complex conjugates of the entries k."""
        objs = self.objs
        conj = {x: self.kid(objs[x].conjugate()) for x in set(k)}
        return list(map(conj.__getitem__, k))


# -- matrices ---------------------------------------------------------------------


class WeilMatrix:
    """Square matrix over Q(zeta_mod), stored as scale * entries with a structure tag.

    WeilMatrix(module, scale, tag, data): rows and columns are indexed by
    module.elements() in their fixed order, the scale is a CyclotomicNumber,
    all entries live at the modulus .mod = lcm(8, level), and tag is one of
    (see the module docstring for the entry formulas):

    - "monomial": data (src, dst, ph); row x holds e(ph[x]) in column src(x),
      and column y its entry in row dst(y);
    - "quadratic": data (alpha, beta, R, C, K, P, Q), entries
      e(alpha[x] + beta[y] + (Rx, Cy)) * objs[K[Px + Qy]], K a list of n entry
      indices (see shape()).

    Every index map (src, dst, R, C, P, Q) is a list of n codes. A matrix
    built by this module (the generators, their products, conjugate
    transposes and multiples) has additive maps by construction, and carries
    that fact as _additive; the product and comparison rules then skip the
    proof, which they keep for a matrix made by calling WeilMatrix directly.

    .mat is a read-only view: the list of rows of CyclotomicNumbers, built
    from the data on first read. Products are structured only: a pair of
    factors without a product rule (see the module docstring) raises
    PreconditionError.
    """

    def __init__(self, module, scale, tag, data):
        self.module = module
        self.mod = _modulus(module)
        self.scale = scale
        self.tag = tag
        self.data = data
        self._mat = None
        self._additive = False

    @property
    def mat(self):
        if self._mat is None:
            self._mat = self._dense()
        return self._mat

    @property
    def size(self):
        return self.module.order()

    def entry(self, i, j):
        """scale * .mat[i][j], from row i alone."""
        tab = _tables(self.module)
        exps, kids = self._row(tab, i)
        return self.scale * _times_root(tab.objs[kids[j]], exps[j], tab.mod)

    def _row(self, tab, i):
        """Row i as (exponents, entry indices): entry j is e(exps[j]) * objs[kids[j]]."""
        tag, data = self.tag, self.data
        fold = tab.fold.__getitem__
        if tag == "monomial":
            src, _dst, ph = data
            exps, kids = list(tab.zeros), [0] * tab.n
            j = src[i]
            exps[j], kids[j] = ph[i], 1
            return exps, kids
        alpha, beta, rmap, cmap, k, pmap, qmap = data
        beta = map(add, beta, tab.pull(tab.pair[rmap[i]], cmap))
        exps = list(map(fold, map(alpha[i].__add__, beta)))
        arow = tab.add[pmap[i]]
        return exps, list(map(k.__getitem__, map(arow.__getitem__, qmap)))

    def _dense(self):
        tab = _tables(self.module)
        m, roots, objs = tab.mod, tab.roots, tab.objs
        shifted = {}

        def entry(e, k):
            if k == 1:
                return roots[e]
            x = shifted.get((e, k))
            if x is None:
                x = shifted[(e, k)] = _times_root(objs[k], e, m)
            return x

        return [list(map(entry, *self._row(tab, i))) for i in range(tab.n)]

    def __matmul__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        if other.module != self.module:
            raise PreconditionError("matrices act on different modules")
        rule = _PRODUCTS[(self.tag, other.tag)]
        additive = self._additive and other._additive
        data = rule(_tables(self.module), self.data, other.data, additive)
        if data is None and (self.shape(), other.shape()) == (CONSTANT, VARIES):
            # (AB)^dagger = B^dagger A^dagger has the varying K on the left, where the rule applies
            b, a = other.conj_transpose(), self.conj_transpose()
            data = rule(_tables(self.module), b.data, a.data, additive)
            if data is not None:
                return _built(self.module, b.scale * a.scale, "quadratic", data,
                              additive).conj_transpose()
        if data is None:
            raise PreconditionError("no structured product of a %s and a %s matrix"
                                    % (self.shape(), other.shape()))
        tag = other.tag if self.tag == "monomial" else self.tag
        return _built(self.module, self.scale * other.scale, tag, data, additive)

    def shape(self):
        """The tag, with "quadratic" split into CONSTANT and VARIES by the entries of K."""
        if self.tag != "quadratic":
            return self.tag
        return CONSTANT if len(set(self.data[4])) == 1 else VARIES

    def conj_transpose(self):
        scale = self.scale.conjugate()
        tab = _tables(self.module)
        if self.tag == "monomial":
            src, dst, ph = self.data
            data = dst, src, tab.vneg(tab.pull(ph, dst))
        else:
            # -(Ry, Cx) = (-Cx, Ry), and K[Py + Qx] is read with the table maps swapped
            alpha, beta, rmap, cmap, k, pmap, qmap = self.data
            data = (tab.vneg(beta), tab.vneg(alpha), tab.pull(tab.mul(-1), cmap), rmap,
                    tab.conjugate(k), qmap, pmap)
        return _built(self.module, scale, self.tag, data, self._additive)

    def scaled(self, c):
        return _built(self.module, self.scale * c, self.tag, self.data, self._additive)

    def first_difference(self, other):
        """None when the matrices are equal, else the first differing entry.

        The entry is (i, j, d) in row-major order, with d = self.entry(i, j) -
        other.entry(i, j) reduced. The rules of _EQUALITIES first try to prove
        equality from the tags' data alone; otherwise each row yields (exponent
        difference, canonical entry, canonical entry) triples, and one zero test
        is run per distinct triple, so that no entry is built.
        """
        if not isinstance(other, WeilMatrix) or other.module != self.module:
            raise PreconditionError("matrices act on different modules")
        tab = _tables(self.module)
        m, roots, objs = tab.mod, tab.roots, tab.objs
        # canonical scales: a product's scale is an unreduced product of canonical factors
        sa, sb = self.scale.reduce(), other.scale.reduce()
        rule = _EQUALITIES.get((self.shape(), other.shape()))
        if rule and rule(tab, self.data, other.data, sa, sb,
                         additive=self._additive and other._additive):
            return None
        same_scale = sa.mod == sb.mod and sa.den == sb.den and sa.coeffs == sb.coeffs
        memo, left, right = {}, {}, {}
        tab.canon(len(objs) - 1)  # every interned entry
        canon = tab._canon
        for i in range(tab.n):
            ea, ka = self._row(tab, i)
            eb, kb = other._row(tab, i)
            ka, kb = list(map(canon.__getitem__, ka)), list(map(canon.__getitem__, kb))
            failed = set()
            for key in set(zip(map(sub, eb, ea), ka, kb)):
                ok = memo.get(key)
                if ok is None:
                    d, a, b = key
                    if a == b and (a == 0 or (same_scale and d == 0)):
                        ok = True
                    else:
                        # sa * A - sb * e(d) * B, with the two products taken once per entry
                        x = left.get(a)
                        if x is None:
                            x = left[a] = sa * objs[a]
                        y = right.get(b)
                        if y is None:
                            y = right[b] = sb * objs[b]
                        ok = (x - _times_root(y, d, m)).is_zero()
                    memo[key] = ok
                if not ok:
                    failed.add(key)
            if failed:
                for j, key in enumerate(zip(map(sub, eb, ea), ka, kb)):
                    if key in failed:
                        d = sa * roots[ea[j]] * objs[ka[j]] - sb * roots[eb[j]] * objs[kb[j]]
                        return i, j, d.reduce()
        return None

    def __eq__(self, other):
        if not isinstance(other, WeilMatrix) or other.module != self.module:
            return NotImplemented
        return self.first_difference(other) is None

    def is_identity(self):
        return self == identity_matrix(self.module)


def _built(module, scale, tag, data, additive=True):
    """A WeilMatrix with _additive set: its index maps are known additive, or not known."""
    out = WeilMatrix(module, scale, tag, data)
    out._additive = additive
    return out


def _times_root(x, d, m):
    """x * e(d/m), for x at a multiple of the modulus m."""
    n, f = x.mod, x.mod // m
    return CyclotomicNumber._normalized(n, {(e + d * f) % n: c for e, c in x.coeffs.items()},
                                        x.den)


# -- structured comparisons -----------------------------------------------------------
#
# Each rule is keyed by the shapes of the two matrices and gets the tables, their
# data, their reduced scales sa and sb, and whether every index map of both is
# known to be additive. It returns True only when it has proved sa * A = sb * B;
# anything else leaves the comparison to the row walk of first_difference.


def _equal_up_to_roots(tab, x, y, diffs):
    """Whether x = y * e(d/M) for every exponent difference d in diffs."""
    y = y * tab.objs[1]
    return all((x - _times_root(y, d, tab.mod)).is_zero()
               for d in set(map(tab.fold.__getitem__, diffs)))


def _monomials_equal(tab, a, b, sa, sb, additive=False):
    """The same columns, and sa = sb * e(ph_b[x] - ph_a[x]) for every row x."""
    src_a, _dst_a, ph_a = a
    src_b, _dst_b, ph_b = b
    return (src_a == src_b
            and _equal_up_to_roots(tab, sa, sb, map(sub, ph_b, ph_a)))


def _quadratic_equals_monomial(tab, a, b, sa, sb, additive=False):
    """A quadratic matrix with varying K against a monomial matrix, by the supports of the rows.

    With U the set of u where K[u] is nonzero, row x of the quadratic matrix is
    nonzero exactly at the columns y with Qy in U - Px. For a bijective Q that
    is one column only when U = {u}; it must then be src(x), with the entries
    sa * e(alpha[x] + beta[src(x)] + (Rx, C src(x))) * K[u] = sb * e(ph[x]).
    """
    alpha, beta, rmap, cmap, k, pmap, qmap = a
    src, _dst, ph = b
    nonzero = {kid for kid in set(k) if tab.canon(kid)}
    support = [u for u, kid in enumerate(k) if kid in nonzero]
    if len(support) != 1 or not tab.is_unit(qmap):
        return False
    (u,) = support
    neg, shift = tab.mul(-1), tab.add[u]
    if tab.pull(qmap, src) != [shift[neg[x]] for x in pmap]:
        return False
    pair = tab.pair
    cross = [pair[x][y] for x, y in zip(rmap, tab.pull(cmap, src))]
    phases = tab.vadd(tab.vadd(alpha, tab.pull(beta, src)), cross)
    return _equal_up_to_roots(tab, sa * tab.objs[tab.canon(k[u])], sb, map(sub, ph, phases))


def _phases_equal(tab, a, b, sa, sb, additive=False):
    """Two quadratic matrices with constant K: one pairing (Rx, Cy), constant phase differences.

    The constants K_a and K_b join the scales. With additive index maps both
    pairings are bilinear, so they agree iff they agree on the r^2 pairs of
    generators. Then the entries agree iff alpha_b - alpha_a = c1 and
    beta_b - beta_a = c2 are constant and sa K_a = sb K_b * e(c1 + c2).
    """
    alpha_a, beta_a, ra, ca, ka, _pa, _qa = a
    alpha_b, beta_b, rb, cb, kb, _pb, _qb = b
    images = [tab.images(f, additive) for f in (ra, ca, rb, cb)]
    if None in images:
        return False
    ra, ca, rb, cb = images
    pair = tab.pair
    if any(pair[x][y] != pair[v][w] for x, v in zip(ra, rb) for y, w in zip(ca, cb)):
        return False
    fold = tab.fold.__getitem__
    c1 = set(map(fold, map(sub, alpha_b, alpha_a)))
    c2 = set(map(fold, map(sub, beta_b, beta_a)))
    return len(c1) == len(c2) == 1 and _equal_up_to_roots(
        tab, sa * tab.objs[ka[0]], sb * tab.objs[kb[0]], [c1.pop() + c2.pop()])


_EQUALITIES = {
    ("monomial", "monomial"): _monomials_equal,
    (VARIES, "monomial"): _quadratic_equals_monomial,
    ("monomial", VARIES): lambda tab, a, b, sa, sb, additive=False:
        _quadratic_equals_monomial(tab, b, a, sb, sa),
    (CONSTANT, CONSTANT): _phases_equal,
}


# -- structured products --------------------------------------------------------------
#
# Each rule gets the tables, the data of both factors and whether every index map
# of both is known to be additive, and returns the data of the product, or None
# when the pair has no structured product.


def _monomial_monomial(tab, a, b, additive):
    src1, dst1, ph1 = a
    src2, dst2, ph2 = b
    return tab.pull(src2, src1), tab.pull(dst1, dst2), tab.vadd(ph1, tab.pull(ph2, src1))


def _rows_reindexed(tab, a, b, additive):
    """Monomial a times quadratic b: row x of b moved to src(x), times e(ph[x])."""
    src, _dst, ph = a
    alpha, beta, rmap, cmap, k, pmap, qmap = b
    return (tab.vadd(ph, tab.pull(alpha, src)), beta, tab.pull(rmap, src), cmap, k,
            tab.pull(pmap, src), qmap)


def _columns_reindexed(tab, a, b, additive):
    """Quadratic a times monomial b: column y of a moved to dst(y)."""
    alpha, beta, rmap, cmap, k, pmap, qmap = a
    _src, dst, ph = b
    return (alpha, tab.pull(tab.vadd(beta, ph), dst), rmap, tab.pull(cmap, dst), k, pmap,
            tab.pull(qmap, dst))


def _quadratic_product(tab, a, b, additive):
    """Quadratic a times quadratic b with a constant K, summed over the middle index t.

    With gamma = beta_a + alpha_b, w = C_a* R_a x + R_b* C_b y and u = P_a x the
    sum is sum_t e(gamma(t) + (t, w)) K[u + mu t], mu = Q_a, with K = K_a K_b.
    A constant K factors out: T(None, gamma)[w] (see _gaussian_sum) times K.
    Otherwise, for a bijective mu (inverse mu') and gamma(mu' s) = c Q(s), the
    substitution s = u + mu t and c Q(s - u) = c Q(s) - c (s, u) + c Q(u) give
    e(c Q(u) - (u, mu'* w)) * T(K, c Q)[mu'* w - c u]: a cross term
    -(u, mu'* R_b* C_b y) times a table, so the product keeps the tag. Every
    entry is the raw sum that the dense loop over t would give.
    """
    alpha1, beta1, r1, c1, k, p1, mu = a
    alpha2, beta2, r2, c2, k2, _p2, _q2 = b
    left, right = tab.adjoint(c1, additive), tab.adjoint(r2, additive)
    if len(set(k2)) != 1 or left is None or right is None:
        return None
    gamma, k = tab.vadd(beta1, alpha2), tab.times(k, k2[0])
    w1, w2 = tab.pull(left, r1), tab.pull(right, c2)
    if len(set(k)) == 1:
        data = _gaussian_sum(tab, alpha1, beta2, gamma, w1, w2)
        return data[:4] + (tab.times(data[4], k[0]),) + data[5:]
    if not tab.is_unit(mu):
        return None
    inv = tab.inverse(mu)
    gamma, adj = tab.pull(gamma, inv), tab.adjoint(inv, additive)  # gamma(mu' s), to be c Q(s)
    c = tab.q_multiple(gamma)
    if adj is None or c is None:
        return None
    # v1 = mu'* C_a* R_a x; the phase c Q(u) - (u, v1) goes to alpha
    v1, qmap = tab.pull(adj, w1), tab.pull(adj, w2)
    m, fold, pair, add_rows = tab.mod, tab.fold, tab.pair, tab.add
    alpha = [fold[x + gamma[ux] + m - pair[ux][vx]] for x, ux, vx in zip(alpha1, p1, v1)]
    pmap = [add_rows[vx][cu] for vx, cu in zip(v1, tab.pull(tab.mul(-c), p1))]
    return (alpha, beta2, tab.pull(tab.mul(-1), p1), qmap, tab.transform(k, gamma), pmap,
            qmap)


def _gaussian_sum(tab, alpha, beta, gamma, w1, w2):
    """The data of e(alpha[x] + beta[y]) * T(None, gamma)[w1 x + w2 y].

    When gamma = c q with c a unit mod the exponent (inverse c'), the
    substitution s = t + c' v in T(None, gamma)[v] = sum_t e(c Q(t) + (t, v))
    gives e(phi(v)) * H, with H = sum_s e(gamma(s)) the histogram of gamma and
    phi(v) = -gamma(c' v). Since phi(a + b) = phi(a) + phi(b) - c' (a, b), the
    phases phi(w1 x) and phi(w2 y) join alpha and beta, the cross term is the
    pairing (-c' w1 x, w2 y), and K is H everywhere: one interned entry in
    O(n). Otherwise K is the transform of n rows, read at w1 x + w2 y.
    """
    c = tab.q_multiple(gamma)
    if c is None or gcd(c, tab.exponent) != 1:
        return alpha, beta, tab.zeros, tab.zeros, tab.transform(None, gamma), w1, w2
    inv = pow(c, -1, tab.exponent)
    phi = tab.vneg(tab.pull(gamma, tab.mul(inv)))
    hist = tab.kid(CyclotomicNumber._normalized(tab.mod, dict(Counter(gamma))))
    return (tab.vadd(alpha, tab.pull(phi, w1)), tab.vadd(beta, tab.pull(phi, w2)),
            tab.pull(tab.mul(-inv), w1), w2, [hist] * tab.n, tab.zeros, tab.zeros)


_PRODUCTS = {
    ("monomial", "monomial"): _monomial_monomial,
    ("monomial", "quadratic"): _rows_reindexed,
    ("quadratic", "monomial"): _columns_reindexed,
    ("quadratic", "quadratic"): _quadratic_product,
}


# -- generators -------------------------------------------------------------------


def identity_matrix(module):
    tab = _tables(module)
    return _built(module, CyclotomicNumber.one(), "monomial", (tab.ident, tab.ident, tab.zeros))


def rho_T(module, power=1):
    """Diagonal action by e(Q(x)) (or its integer powers)."""
    power = integer(power, "T powers")
    tab = _tables(module)
    ph = [power * v % tab.mod for v in tab.q]
    return _built(module, CyclotomicNumber.one(), "monomial", (tab.ident, tab.ident, ph))


def rho_S(module):
    """The Fourier-transform generator: entries e(-(x, y)) scaled by the Gauss phase.

    A quadratic matrix with K = 1 and row map x -> -x, since -(x, y) = (-x, y).
    """
    tab = _tables(module)
    scale = root_of_unity(-module.signature(), 8) * cyclo.sqrt_card(module) \
        * Fraction(1, module.order())
    return _built(module, scale, "quadratic",
                  (tab.zeros, tab.zeros, tab.mul(-1), tab.ident, tab.ones, tab.zeros, tab.zeros))


def rho_Z(module):
    """Action of the central element: e(-sig/4) times the negation permutation."""
    tab = _tables(module)
    neg = tab.mul(-1)
    return _built(module, root_of_unity(-module.signature(), 4), "monomial",
                      (neg, neg, tab.zeros))


def rho_ST(module):
    return rho_S(module) @ rho_T(module)


def aut_matrix(module, h):
    """Permutation matrix of a Q-preserving automorphism."""
    if not isinstance(h, fqm.Automorphism):
        raise PreconditionError("expected a checked automorphism")
    fqm._require_of(module, h, "automorphism")
    tab = _tables(module)
    dst = tab.linear_map([tab.code(h(g).coords) for g in module.generators()])
    # e_y goes to e_{dst[y]}, so row x reads column src[x] with dst[src[x]] = x
    return _built(module, CyclotomicNumber.one(), "monomial",
                  (tab.inverse(dst), dst, tab.zeros))


def _word_in_generators(matrix):
    """Write an SL2(Z) matrix as a word in nonzero T powers, S, and Z."""
    (a, b), (c, d) = matrix
    word = []
    while c != 0:
        n = a // c
        word += [("T", n), ("S", 1)]
        # continue with S^{-1} T^{-n} M
        a, b, c, d = c, d, -(a - n * c), -(b - n * d)
    # now the matrix is upper triangular with a = d = +-1
    word += [("T", b)] if a == 1 else [("Z", 1), ("T", -b)]
    return [(kind, n) for kind, n in word if n]


def rho_of(module, g):
    """Evaluate the representation on an arbitrary metaplectic element.

    The matrix is decomposed into a word in the generators by a continued
    fraction on its first column; the branch bit is matched by comparing the
    word's metaplectic product with the requested element. The word is folded
    from the left by S and monomials only, so every partial product is tagged
    (see _quadratic_product) and no dense matrix is built.
    """
    if not isinstance(g, MetaplecticElement):
        g = MetaplecticElement(g)
    out = identity_matrix(module)
    acc = MetaplecticElement(((1, 0), (0, 1)))
    letters = {"S": (rho_S(module), gen_S()), "Z": (rho_Z(module), gen_Z())}
    for kind, n in _word_in_generators(g.matrix):
        mat, elt = letters[kind] if kind != "T" else (rho_T(module, n), gen_T() ** n)
        out, acc = out @ mat, acc @ elt
    if acc.matrix != g.matrix:
        raise ConsistencyError("word reduction did not reproduce the matrix %s on the module "
                               "with orders %s and level %d"
                               % (g.matrix, module.orders, module.level()))
    if acc.bit != g.bit:
        # the two lifts differ by the order-two central element Z^2
        out = out.scaled(root_of_unity(-module.signature(), 2))
    return out


# -- relation suite -------------------------------------------------------------


# relation_report also runs the naive triple-product braid check up to this order
DIRECT_CUBE_BOUND = 40


def relation_report(module, witnesses=None):
    """Exact verification of the defining relations; returns {name: bool}.

    The braid relation is checked via the reassociated identity
    T S T = S^{-1} Z T^{-1} S^{-1} (with S^{-1} the conjugate transpose,
    justified by the unitarity check); modules of order up to
    DIRECT_CUBE_BOUND also run the naive triple-product form. When witnesses
    is a dict, the first differing entry (i, j, lhs - rhs) of each failing
    relation (see WeilMatrix.first_difference) is stored under its name.
    """
    out = {}

    def check(name, lhs, rhs):
        out[name] = ok = lhs == rhs
        if not ok and witnesses is not None:
            witnesses[name] = lhs.first_difference(rhs)

    s = rho_S(module)
    t = rho_T(module)
    z = rho_Z(module)
    ident = identity_matrix(module)
    s_dag = s.conj_transpose()
    check("unitary_S", s @ s_dag, ident)
    check("S2_equals_Z", s @ s, z)
    t_inv = rho_T(module, -1)
    check("braid_STSTST_equals_Z", t @ s @ t, (s_dag @ z) @ (t_inv @ s_dag))
    if module.order() <= DIRECT_CUBE_BOUND:
        st = s @ t
        check("braid_direct", st @ st @ st, z)
    # Z acts by e(-sig/4) on e_{-x}
    check("Z_squared_scalar", z @ z, ident.scaled(root_of_unity(-module.signature(), 2)))
    neg = fqm.negation_automorphism(module)
    p = aut_matrix(module, neg)
    check("negation_is_unit_times_Z", p, z.scaled(root_of_unity(module.signature(), 4)))
    check("aut_commutes_S", p @ s, s @ p)
    check("aut_commutes_T", p @ t, t @ p)
    try:
        ph = fqm.phi_r(module, _coprime_unit(module))
        m = aut_matrix(module, ph)
        check("phi_r_commutes_S", m @ s, s @ m)
    except PreconditionError:
        pass
    return out


def _coprime_unit(module):
    pair = fqm._find_hyperbolic_pair(module)
    n = module.orders[pair[0]]
    for r in range(2, n):
        if gcd(r, n) == 1:
            return r
    return 1
