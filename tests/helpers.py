"""Shared generators and reference oracles for randomized exact tests. Everything is seeded."""

import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul, sub

from discforms import fqm, weil
from discforms._intmat import (DECIMAL_EXPONENT_BOUND, even_gram, image_basis, invert_rational,
                               is_prime, mat_mul, mat_vec, smith_normal_form, solve_hermite,
                               transpose)
from discforms.cyclo import CyclotomicNumber, _basis_plan, e_frac
from discforms.errors import ConsistencyError, PreconditionError
from discforms.qseries import (ROOT_ORDER_BOUND, VectorValuedQSeries, _conj, _is_zero_value,
                               reduction)
from discforms.weil import WeilMatrix, _tables, _times_root


def un(n):
    """Gram matrix of the hyperbolic plane rescaled by n."""
    return [[0, n], [n, 0]]


def block(*mats):
    """Block-diagonal matrix with the given square blocks."""
    n = sum(len(m) for m in mats)
    out = [[0] * n for _ in range(n)]
    o = 0
    for m in mats:
        for i in range(len(m)):
            for j in range(len(m)):
                out[o + i][o + j] = m[i][j]
        o += len(m)
    return out


def random_even_gram(rng, max_rank=6, max_det=1000, entry=3):
    """Random symmetric integer matrix with even diagonal and 0 < |det| <= max_det."""
    while True:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-entry, entry)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-entry, entry)
        from discforms._intmat import determinant
        d = determinant(g)
        if d != 0 and abs(d) <= max_det:
            return g


def valid_cyclic_q(rng, n):
    """Q(generator) = a/2n making Z/n a well-defined non-degenerate module.

    Needs n*a even (well-definedness) and gcd(a, n) = 1 (non-degeneracy).
    """
    from math import gcd
    while True:
        a = rng.randrange(1, 2 * n)
        if n % 2 == 0 and a % 2 == 0:
            continue
        if n % 2 == 1 and a % 2 == 1:
            continue
        if gcd(a, n) == 1:
            return Fraction(a, 2 * n)


def random_module(rng, max_order=60):
    """Random non-degenerate module as a direct sum of cyclic and hyperbolic blocks."""
    while True:
        mod = fqm.trivial_module()
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                n = rng.choice([2, 2, 3, 4, 5])
                mod = fqm.direct_sum(mod, fqm.cyclic_module(n, valid_cyclic_q(rng, n)))
            else:
                mod = fqm.direct_sum(mod, fqm.hyperbolic_module(rng.choice([2, 3, 4])))
        if 1 < mod.order() <= max_order:
            return mod


def random_isotropic_subgroup(rng, module, orders=(2, 3, 4, 5)):
    """A random isotropic subgroup of small order, or the trivial one."""
    candidates = []
    for n in orders:
        if module.order() % n == 0:
            candidates.extend(fqm.isotropic_subgroups(module, n))
    if not candidates:
        return fqm.Subgroup(module, [module.zero()])
    return rng.choice(candidates)


def random_series(module, weight, truncation, rng, density=0.5):
    """Random rational coefficients on the congruence-allowed grid."""
    f = VectorValuedQSeries(module, weight, truncation)
    for mu in module.elements():
        m = mu.q()
        while m <= truncation:
            if rng.random() < density:
                f.set(mu, m, Fraction(rng.randint(-9, 9)))
            m += 1
    return f


def newpart_series(module, e_ref, weight, truncation, rng, density=0.7):
    """Random series supported on the content-one classes relative to e_ref."""
    f = VectorValuedQSeries(module, weight, truncation)
    for mu in module.elements():
        if e_ref.order() > 1 and fqm.content(module, e_ref, mu) != 1:
            continue
        m = mu.q()
        while m <= truncation:
            if rng.random() < density:
                f.set(mu, m, Fraction(rng.randint(-9, 9)))
            m += 1
    return f


def profile_module(profile):
    """Direct sum of the blocks of a benchmark profile.

    ("c", n) is Z/n with Q(g) = a/2n (a = 1 for even n, 2 for odd n) and
    ("h", n) the hyperbolic plane (Z/n)^2.
    """
    out = fqm.trivial_module()
    for kind, n in profile:
        block = (fqm.hyperbolic_module(n) if kind == "h"
                 else fqm.cyclic_module(n, Fraction(1 if n % 2 == 0 else 2, 2 * n)))
        out = fqm.direct_sum(out, block)
    return out


def fibers_reference(module, h):
    """The fibers of qseries.reduction by projecting every element of H^perp.

    The construction that the coset route of qseries.reduction is checked against.
    """
    _b, proj, _sect = fqm.subquotient(module, h)
    fibers = {}
    for mu in fqm.orthogonal_complement(module, h).elements:
        fibers.setdefault(proj(mu).coords, []).append(mu.coords)
    return fibers


class DenseReference:
    """A Weil matrix as scale times dense rows of CyclotomicNumbers.

    The oracle that the tagged WeilMatrix is checked against: entries given at
    a divisor of the module's modulus are promoted to it, and == compares
    values entry by entry, against another DenseReference or, through the
    reflected __eq__, a WeilMatrix (anything with .module, .scale and .mat).
    """

    def __init__(self, module, scale, rows):
        self.module = module
        self.mod = mod = weil._modulus(module)
        self.scale = scale
        self.mat = [[x._promoted(mod) for x in row] for row in rows]

    @property
    def size(self):
        return len(self.mat)

    def entry(self, i, j):
        return self.scale * self.mat[i][j]

    def scaled(self, c):
        return DenseReference(self.module, self.scale * c, self.mat)

    def conj_transpose(self):
        return DenseReference(self.module, self.scale.conjugate(),
                              [[x.conjugate() for x in col] for col in zip(*self.mat)])

    def to_complex(self):
        s = self.scale.to_complex()
        return [[s * x.to_complex() for x in row] for row in self.mat]

    def __eq__(self, other):
        if other.module != self.module or len(other.mat) != self.size:
            return False
        sa, sb = self.scale, other.scale
        memo = {}
        for ra, rb in zip(self.mat, other.mat):
            for x, y in zip(ra, rb):
                key = (x.den, frozenset(x.coeffs.items()), y.den, frozenset(y.coeffs.items()))
                ok = memo.get(key)
                if ok is None:
                    ok = memo[key] = (sa * x - sb * y).is_zero()
                if not ok:
                    return False
        return True


def dense_matmul_reference(a, b):
    """a @ b for WeilMatrix or DenseReference factors by the plain dense triple loop.

    The slow exact product that the structured kernels of WeilMatrix.__matmul__
    are checked against, summed over exponent pairs; both factors are at the
    module's modulus. Returns a DenseReference.
    """
    mod = a.mod
    n = a.size
    out = []
    for i in range(n):
        nz = [(t, a.mat[i][t]) for t in range(n) if a.mat[i][t].coeffs]
        row = []
        for j in range(n):
            acc = {}
            for t, x in nz:
                y = b.mat[t][j]
                if not y.coeffs:
                    continue
                den = x.den * y.den
                for e1, c1 in x.coeffs.items():
                    for e2, c2 in y.coeffs.items():
                        e = (e1 + e2) % mod
                        acc[e] = acc.get(e, 0) + (c1 * c2 if den == 1 else Fraction(c1 * c2, den))
            row.append(CyclotomicNumber(mod, acc))
        out.append(row)
    return DenseReference(a.module, a.scale * b.scale, out)


def plus_subspace_reference(module, k):
    """Basis data and restricted generator matrices on the symmetrized subspace.

    The numeric oracle of the dimension formula. k is the weight; 2k must be
    congruent to the signature mod 4 so that the central element acts by
    e(-k/2) on the subspace. Returns (reps, weights, t_mat, s_mat, st_mat)
    where reps are the {x, -x} orbit representatives, weights are the squared
    norms of the basis vectors e_x + e_{-x} (1 when 2x = 0), and the matrices
    are DenseReferences of size len(reps), rows and columns indexed by reps
    in order.
    """
    fqm.check_weight_parity(module, k)
    reps = fqm.orbit_representatives(module)
    tab = _tables(module)
    codes = [tab.code(x.coords) for x in reps]
    neg = tab.mul(-1)
    weights = [1 if neg[y] == y else 2 for y in codes]

    def restrict(full):
        mat = full.mat
        rows = [[mat[x][y] if neg[y] == y else mat[x][y] + mat[x][neg[y]] for y in codes]
                for x in codes]
        return DenseReference(module, full.scale, rows)

    return (reps, weights, restrict(weil.rho_T(module)), restrict(weil.rho_S(module)),
            restrict(weil.rho_ST(module)))


def transform_reference(tab, k, gamma):
    """weil._Tables.transform by one histogram of n terms per row, for every gamma.

    The oracle that the closed forms of the Weil products are checked against:
    T[v] = sum_s K[s] e(gamma(s) + (s, v)) as a raw sum, K given by entry
    indices k or None (reads 1); returns the interned entry index of each row.
    """
    m, objs, fold = tab.mod, tab.objs, tab.fold.__getitem__
    out = []
    for row in tab.pair:
        exps = map(fold, map(add, gamma, row))
        if k is None:
            out.append(tab.kid(CyclotomicNumber._normalized(m, dict(Counter(exps)))))
            continue
        acc = {}
        for (kid, e), c in Counter(zip(k, exps)).items():
            x = objs[kid]
            for f, co in x.coeffs.items():
                f += e
                if f >= m:
                    f -= m
                acc[f] = acc.get(f, 0) + Fraction(co * c, x.den)
        out.append(tab.kid(CyclotomicNumber(m, acc)))
    return out


def rho_of_reference(module, g):
    """weil.rho_of with every product of the word taken by dense_matmul_reference.

    The oracle that the structured word products of weil.rho_of are checked
    against: the same word in T powers, S and Z, folded from the left.
    """
    if not isinstance(g, weil.MetaplecticElement):
        g = weil.MetaplecticElement(g)
    out = weil.identity_matrix(module)
    acc = weil.MetaplecticElement(((1, 0), (0, 1)))
    for kind, n in weil._word_in_generators(g.matrix):
        if kind == "T":
            if n:
                out = dense_matmul_reference(out, weil.rho_T(module, n))
                acc = acc @ weil.gen_T() ** n
        elif kind == "S":
            out = dense_matmul_reference(out, weil.rho_S(module))
            acc = acc @ weil.gen_S()
        else:
            out = dense_matmul_reference(out, weil.rho_Z(module))
            acc = acc @ weil.gen_Z()
    if acc.matrix != g.matrix:
        raise ConsistencyError("word reduction did not reproduce %s" % (g.matrix,))
    if acc.bit != g.bit:
        out = out.scaled(e_frac(Fraction(-module.signature(), 2)))
    return out


def first_difference_reference(self, other):
    """WeilMatrix.first_difference as a row walk only, with no structured rules.

    The oracle that the equality rules of weil._EQUALITIES are checked against.
    None when the matrices are equal, else the first differing entry (i, j, d)
    in row-major order, with d = self.entry(i, j) - other.entry(i, j) reduced.
    Entries are compared without being built: each row yields (exponent
    difference, entry index, entry index) triples, and one zero test is run
    per distinct triple.
    """
    if not isinstance(other, WeilMatrix) or other.module != self.module:
        raise PreconditionError("matrices act on different modules")
    tab = _tables(self.module)
    m, roots, objs = tab.mod, tab.roots, tab.objs
    # canonical scales: a product's scale is a long unreduced sum, its value often one term
    sa, sb = self.scale.reduce(), other.scale.reduce()
    same_scale = sa.mod == sb.mod and sa.den == sb.den and sa.coeffs == sb.coeffs
    memo, left, right = {}, {}, {}
    for i in range(tab.n):
        ea, ka = self._row(tab, i)
        eb, kb = other._row(tab, i)
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


class FractionCyclotomicReference:
    """cyclo.CyclotomicNumber with one Fraction or int coefficient per root, kept as the oracle."""

    __slots__ = ("mod", "coeffs")

    def __init__(self, mod, coeffs):
        self.mod = mod
        out = {}
        for e, c in coeffs.items():
            if c:
                e %= mod
                out[e] = out.get(e, 0) + c
        self.coeffs = {e: c for e, c in out.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(r):
        r = Fraction(r)
        if r.denominator == 1:
            r = int(r)
        return FractionCyclotomicReference(1, {0: r} if r else {})

    @classmethod
    def _normalized(cls, mod, coeffs):
        """Wrap coeffs that are already normal: exponents in [0, mod), no zero values.

        Skips the renormalization of __init__; the caller vouches for the form.
        """
        out = object.__new__(cls)
        out.mod = mod
        out.coeffs = coeffs
        return out

    @staticmethod
    def zero():
        return FractionCyclotomicReference(1, {})

    @staticmethod
    def one():
        return FractionCyclotomicReference(1, {0: 1})

    # -- coercion ----------------------------------------------------------

    def _promoted(self, mod):
        if mod == self.mod:
            return self
        if mod % self.mod:
            raise AssertionError("promotion target must be a multiple")
        f = mod // self.mod
        return FractionCyclotomicReference(mod, {e * f: c for e, c in self.coeffs.items()})

    @staticmethod
    def _pair(a, b):
        if isinstance(b, (int, Fraction)):
            b = FractionCyclotomicReference.from_rational(b)
        elif not isinstance(b, FractionCyclotomicReference):
            return None, None
        m = lcm(a.mod, b.mod)
        return a._promoted(m), b._promoted(m)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = FractionCyclotomicReference._pair(self, other)
        if a is None:
            return NotImplemented
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, 0) + c
        return FractionCyclotomicReference(a.mod, out)

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclotomicReference(self.mod, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        a, b = FractionCyclotomicReference._pair(self, other)
        if a is None:
            return NotImplemented
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, 0) - c
        return FractionCyclotomicReference(a.mod, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return FractionCyclotomicReference(self.mod, {})
            if other == 1:
                return self
            return FractionCyclotomicReference(self.mod, {e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, FractionCyclotomicReference):
            return NotImplemented
        a, b = FractionCyclotomicReference._pair(self, other)
        mod = a.mod
        out = {}
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                if e >= mod:
                    e -= mod
                out[e] = out.get(e, 0) + c1 * c2
        return FractionCyclotomicReference(mod, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, FractionCyclotomicReference):
            return NotImplemented
        # supported divisors: values with rational |x|^2 (roots of unity,
        # rationals, exact square roots of cardinalities)
        norm = (other * other.conjugate()).rational_value()
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return self * other.conjugate() * (Fraction(1) / norm)

    def __rtruediv__(self, other):
        return FractionCyclotomicReference.from_rational(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return FractionCyclotomicReference.one() / self ** (-n)
        out = FractionCyclotomicReference.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def conjugate(self):
        return FractionCyclotomicReference(self.mod, {-e % self.mod: c for e, c in self.coeffs.items()})

    # -- canonicalization ---------------------------------------------------

    def reduce(self):
        """Canonical form at the same modulus.

        The basis is the tensor product, over the prime powers q || mod, of the
        power bases 1, w, ..., w^(phi(q)-1) of the q-th root w whose other CRT parts
        are 0: no exponent has top digit p - 1 in its q-part. A term with that digit
        is minus the sum of its p - 1 shifts to the other digits, since the p-th
        roots of unity sum to zero. The primes are cleared one after another, and a
        shift moves no other prime's digit. At a prime power this is the remainder
        modulo Phi_q.
        """
        mod, out = self.mod, dict(self.coeffs)
        for q, top, shifts in _basis_plan(mod):
            for e in [e for e in out if e % q >= top]:
                c = out.pop(e)
                for s in shifts:
                    f = e + s
                    if f >= mod:
                        f -= mod
                    out[f] = out.get(f, 0) - c
        return FractionCyclotomicReference._normalized(mod, {e: c for e, c in out.items() if c})

    def is_zero(self):
        return not self.reduce().coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionCyclotomicReference.from_rational(other)
        if not isinstance(other, FractionCyclotomicReference):
            return NotImplemented
        if self.mod == other.mod and self.coeffs == other.coeffs:
            return True
        return (self - other).is_zero()

    __hash__ = None

    def rational_value(self):
        r = self.reduce()
        if any(e != 0 for e in r.coeffs):
            raise ConsistencyError("value is not rational: %s" % self)
        return Fraction(r.coeffs.get(0, 0))

    # -- diagnostics ---------------------------------------------------------

    def to_complex(self):
        w = 2j * cmath.pi / self.mod
        return sum(complex(c) * cmath.exp(w * e) for e, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            c = Fraction(c)
            cs = "%d/%d" % (c.numerator, c.denominator) if c.denominator != 1 else str(c.numerator)
            parts.append(cs if e == 0 else "%s * z%d^%d" % (cs, self.mod, e))
        return " + ".join(parts)


def cyclotomic_polynomial_reference(m):
    """Phi_m as a coefficient list, by dividing x^m - 1 by Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic_polynomial_reference(d)
            out = [0] * (len(poly) - len(den) + 1)
            for i in range(len(out) - 1, -1, -1):
                out[i] = c = poly[i + len(den) - 1]
                for j, dj in enumerate(den):
                    poly[i + j] -= c * dj
            assert not any(poly)
            poly = out
    return poly


@lru_cache(maxsize=None)
def cyclotomic_polynomial_radical(m):
    """Phi_m as a coefficient tuple (low to high), fast enough for orders near 40000.

    Phi_m(x) = Phi_r(x^(m/r)) for the radical r of m, and Phi_r is built from
    Phi_1 = x - 1 one prime p at a time by Phi_{np}(x) = Phi_n(x^p) / Phi_n(x).
    """
    def spread(poly, k):
        out = [0] * (k * (len(poly) - 1) + 1)
        out[::k] = poly
        return out

    poly, rad = [-1, 1], 1
    for p in range(2, m + 1):
        if m % p == 0 and is_prime(p):
            num, den = spread(poly, p), poly
            out = [0] * (len(num) - len(den) + 1)
            for i in range(len(out) - 1, -1, -1):
                out[i] = c = num[i + len(den) - 1]
                if c:
                    for j, dj in enumerate(den):
                        num[i + j] -= c * dj
            assert not any(num), "division was not exact"
            poly, rad = out, rad * p
    return tuple(spread(poly, m // rad))


def phi_remainder_reference(x):
    """The remainder of a CyclotomicNumber modulo Phi_mod, as {exponent: Fraction}.

    This is the canonical form on the power basis 1, z, ..., z^(phi(mod)-1): two
    numbers at one modulus are equal exactly when their remainders are.
    """
    phi = cyclotomic_polynomial_radical(x.mod)
    deg = len(phi) - 1
    terms = [(j - deg, c) for j, c in enumerate(phi[:deg]) if c]
    rem = [0] * x.mod
    for e, c in x.coeffs.items():
        rem[e] = Fraction(c, x.den)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j, p in terms:
                rem[i + j] -= c * p
    return {e: c for e, c in enumerate(rem[:deg]) if c}


def q_value_reference(module, x):
    """Q(x) summed in Fractions from the presentation's q_values and bilinear."""
    q = Fraction(0)
    c = x.coords
    for i, ci in enumerate(c):
        q += ci * ci * module.q_values[i]
        for j in range(i + 1, len(c)):
            q += ci * c[j] * module.bilinear[i][j]
    return q % 1


def bilinear_value_reference(module, x, y):
    """(x, y) summed in Fractions from the presentation's bilinear matrix."""
    b = Fraction(0)
    for i, ci in enumerate(x.coords):
        if ci:
            row = module.bilinear[i]
            for j, cj in enumerate(y.coords):
                if cj:
                    b += ci * cj * row[j]
    return b % 1


def gauss_sum_reference(module, c):
    """Sum of e(c*Q(x)) over module.elements(), at the lcm of the value denominators.

    The element loop that cyclo.gauss_sum's histogram route is checked against.
    """
    counts = {}
    for x in module.elements():
        q = (c * module.q_value(x)) % 1
        counts[q] = counts.get(q, 0) + 1
    mod = lcm(*(q.denominator for q in counts))
    out = {}
    for q, n in counts.items():
        e = q.numerator * (mod // q.denominator)
        out[e] = out.get(e, 0) + n
    return CyclotomicNumber(mod, out)


@lru_cache(maxsize=64)
def q_histogram_walk(module):
    """(N, counts) of fqm.q_histogram by one pass over all coordinates, whatever the structure.

    The coordinate walk of the kind fqm._Walk; here it is the oracle of the
    fqm._Sum and fqm._Hyperbolic routes. Kept for the last 64 modules, so that
    each Gauss sum does not walk again.
    """
    return module.level(), module._count_q_values([range(d) for d in module.orders])


def two_torsion_histogram(a):
    """(N, counts) as in q_histogram, over the 2-torsion A[2] = {x : 2x = 0}.

    A[2] has the coordinates x_i in {0, d_i/2}, with d_i/2 only for even d_i.
    As in q_histogram, a module of the kind fqm._Sum convolves its summands'
    histograms and one of the kind fqm._Hyperbolic, H(n), has a closed form.
    The histogram route of the 2-torsion, the oracle of fqm.two_torsion_q_moments.
    """
    kind = a._structure
    if isinstance(kind, fqm._Sum):
        return fqm._convolve(*map(two_torsion_histogram, kind.summands))
    n = a.level()
    if isinstance(kind, fqm._Hyperbolic):
        # (0, 0), (n/2, 0), (0, n/2) and (n/2, n/2) for even n, with N*Q(x, y) = xy
        counts = [0] * n
        halves = (0, n // 2) if n % 2 == 0 else (0,)
        for x in halves:
            for y in halves:
                counts[x * y % n] += 1
        return n, tuple(counts)
    return n, a._count_q_values([(0, d // 2) if d % 2 == 0 else (0,) for d in a.orders])


def orbit_data_histogram(module):
    """dims._orbit_data read from the Q-value histograms of A and A[2], the oracle of the moments.

    An orbit has two elements unless it lies in A[2], so each orbit sum is half
    the sum over A plus the sum over A[2]; Q values are k/N.
    """
    n, h = module.q_histogram()
    h2 = two_torsion_histogram(module)[1]
    d = (module.order() + sum(h2)) // 2
    alpha_t = Fraction(sum(k * (a + b) for k, (a, b) in enumerate(zip(h, h2))), 2 * n)
    return d, alpha_t, (h[0] + h2[0]) // 2


def two_torsion_walk(module):
    """(N, counts) of two_torsion_histogram by one pass over the 2-torsion coordinates."""
    return module.level(), module._count_q_values([(0, d // 2) if d % 2 == 0 else (0,)
                                                   for d in module.orders])


def gauss_sum_walk(module, c):
    """cyclo.gauss_sum read from the walked histogram: sum_k counts[k] * e(c*k/N).

    Integer coefficients at the least modulus N/gcd(N, c*k) over the values
    that occur, reduced to canonical form, so it is raw-equal (mod, coeffs,
    den) to every route of cyclo.gauss_sum.
    """
    n, counts = q_histogram_walk(module)
    exps = [(c * k % n, m) for k, m in enumerate(counts) if m]
    g = gcd(n, *(e for e, _m in exps))
    out = {}
    for e, m in exps:
        out[e // g] = out.get(e // g, 0) + m
    return CyclotomicNumber._normalized(n // g, out).reduce()


def validate_reference(orders, q_values, bilinear):
    """The presentation checks of FiniteQuadraticModule, in Fraction arithmetic.

    The checks that construction runs on the integer form N*Q, N*(g_i, g_j),
    here on the values reduced to [0, 1), in the same order and with the same
    messages; degeneracy is decided by degenerate_reference. Raises
    PreconditionError, or returns None for a module that construction accepts.
    """
    orders = tuple(int(d) for d in orders)
    q_values = tuple(Fraction(q) % 1 for q in q_values)
    bilinear = tuple(tuple(Fraction(b) % 1 for b in row) for row in bilinear)
    r = len(orders)
    if any(len(row) != len(bilinear) for row in bilinear):
        raise PreconditionError("bilinear matrix must be square")
    if len(q_values) != r or len(bilinear) != r:
        raise PreconditionError("inconsistent presentation sizes")
    for i in range(r):
        if bilinear[i][i] != 2 * q_values[i] % 1:
            raise PreconditionError("diagonal pairing must equal 2*Q on generators")
        if orders[i] ** 2 * q_values[i] % 1 != 0:
            raise PreconditionError("Q value incompatible with generator order")
        for j in range(r):
            if bilinear[i][j] != bilinear[j][i]:
                raise PreconditionError("bilinear matrix must be symmetric")
            if orders[i] * bilinear[i][j] % 1 != 0:
                raise PreconditionError("pairing incompatible with generator order")
    if degenerate_reference(orders, q_values, bilinear):
        raise PreconditionError("quadratic form is degenerate")
    return None


def degenerate_reference(orders, q_values, bilinear):
    """True when |sum_x e(Q(x))|^2 differs from the order: the Gauss-sum degeneracy test.

    Q is summed in Fractions over all coordinate tuples of a presentation that
    passes the shape checks of FiniteQuadraticModule, so no module is built.
    A prefix recursion keeps Q(y) and the pairings (y, g_j) of the prefix y,
    and the last generator g steps by Q(y + (c+1)g) - Q(y + cg) = (y, g) + (2c+1)Q(g),
    every value kept in [0, 1).
    """
    r = len(orders)
    q = [Fraction(x) % 1 for x in q_values]
    b = [[Fraction(x) % 1 for x in row] for row in bilinear]
    counts = Counter()

    def walk(i, value, pair):
        if i == r:
            counts[value.numerator, value.denominator] += 1
            return
        if i == r - 1:
            step, bump = (pair[i] + q[i]) % 1, 2 * q[i] % 1
            for _ in range(orders[i]):
                counts[value.numerator, value.denominator] += 1
                value += step
                if value >= 1:
                    value -= 1
                step += bump
                if step >= 1:
                    step -= 1
            return
        for c in range(orders[i]):
            walk(i + 1, (value + c * c * q[i] + c * pair[i]) % 1,
                 [(p + c * x) % 1 for p, x in zip(pair, b[i])])

    walk(0, Fraction(0), [Fraction(0)] * r)
    mod = lcm(*(d for _n, d in counts))
    g = CyclotomicNumber(mod, {n * (mod // d): k for (n, d), k in counts.items()})
    return (g * g.conjugate()).rational_value() != prod(orders)


def orbit_representatives_reference(module):
    """The first member of each {x, -x} orbit met in module.elements(), by a seen-set walk."""
    reps, seen = [], set()
    for x in module.elements():
        if x.coords not in seen:
            reps.append(x)
            seen.update((x.coords, (-x).coords))
    return reps


def orbit_data_reference(module):
    """(d, alpha_T, isotropic orbit count) from the {x, -x} orbit representatives."""
    qs = [x.q() for x in fqm.orbit_representatives(module)]
    return len(qs), sum(qs, Fraction(0)), qs.count(0)


def _integer_reference(value, what):
    if isinstance(value, CyclotomicNumber):
        value = value.rational_value()
    value = Fraction(value)
    if value.denominator != 1:
        raise ConsistencyError("%s is not an integer: %s" % (what, value))
    return int(value)


def dim_M_reference(module, k, gauss=gauss_sum_reference):
    """The fields of dims.dim_M(module, k), as a dict, by the element loops.

    The Gauss sums come from gauss(module, c), so that a caller can share
    them between checks; the orbit data from orbit_data_reference. Each trace
    is divided by the order before its rational value is extracted, so the
    reductions run on Fraction coefficients.
    """
    k = Fraction(k)
    fqm.check_weight_parity(module, k)
    d, alpha_t, iso = orbit_data_reference(module)
    order = module.order()
    c8 = e_frac(Fraction(-module.signature(), 8))
    inv_sqrt = c8 * gauss(module, 1) * Fraction(1, order)

    def half_trace(c_plain, c_flipped):
        t1 = c8 * gauss(module, c_plain) * inv_sqrt
        t2 = c8 * gauss(module, c_flipped) * inv_sqrt
        return (t1 + t2) * Fraction(1, 2)

    tr_u = e_frac(k / 4) * half_trace(-2, 2)
    t_int = _integer_reference(tr_u, "trace of the normalized S matrix")
    m_plus = _integer_reference(Fraction(d + t_int, 2), "multiplicity of +1 for S")
    m_minus = _integer_reference(Fraction(d - t_int, 2), "multiplicity of -1 for S")
    tr_v = e_frac(k / 6) * half_trace(-1, 3)
    tr_v2 = tr_v.conjugate()
    w = e_frac(Fraction(1, 3))
    mult = []
    for j in range(3):
        val = (Fraction(d) + w ** (-j) * tr_v + w ** (-2 * j) * tr_v2) * Fraction(1, 3)
        mult.append(_integer_reference(val, "multiplicity %d for ST" % j))
    m0, m1, m2 = mult
    total = d + Fraction(d) * k / 12 - Fraction(m_minus, 2) - Fraction(2 * m1 + m2, 3) - alpha_t
    dim_m = _integer_reference(total, "dimension of the holomorphic space")
    return dict(d=d, alpha_T=alpha_t, mult_S=(m_plus, m_minus), mult_ST=(m0, m1, m2),
                dim_M=dim_m, dim_S=dim_m - iso, iso_orbit_count=iso)


# -- the element-set subgroup code, kept as the oracle for the Hermite-form route --


def closure_reference(module, generators):
    """Coords of the subgroup generated by the given elements, by repeated addition."""
    out = {module.zero().coords}
    for g in generators:
        for c in list(out):
            x = module.element(c)
            for k in range(1, g.order()):
                out.add((x + k * g).coords)
    return out


def greedy_generators_reference(module, elements):
    """Generators picked in element order, each one not in the span of the earlier ones."""
    gens = []
    have = {module.zero().coords}
    for x in elements:
        if x.coords not in have:
            gens.append(x)
            have = closure_reference(module, gens)
            if len(have) == len(elements):
                break
    return gens


def orthogonal_complement_reference(module, h_coords):
    """Sorted coords of the x pairing to 0 with every element of H, by scanning A."""
    gens = greedy_generators_reference(module, [module.element(c) for c in sorted(h_coords)])
    return sorted(x.coords for x in module.elements() if all(x.bil(g) == 0 for g in gens))


def isotropic_subgroups_reference(module, order):
    """Sorted element lists of the isotropic subgroups of the given order.

    The frontier walk over element sets: every candidate H + <x> with Q(x) = 0
    is closed by repeated addition and then scanned for isotropy in full.
    """
    iso = [x for x in module.elements() if x.q() == 0]
    zero = frozenset({module.zero().coords})
    frontier = [(zero, ())]
    seen = {zero}
    found = []
    while frontier:
        nxt = []
        for elts, gens in frontier:
            if len(elts) == order:
                found.append(elts)
                continue
            if order % len(elts):
                continue
            for x in iso:
                if x.coords in elts:
                    continue
                k = frozenset(closure_reference(module, gens + (x,)))
                if len(k) > order or order % len(k) or k in seen:
                    continue
                if all(module.element(c).q() == 0 for c in k):
                    seen.add(k)
                    nxt.append((k, gens + (x,)))
        frontier = nxt
    return sorted(tuple(sorted(k)) for k in found)


def subquotient_reference(module, h_coords):
    """(b, proj) for H^perp/H from image bases of the greedy generators of H and H^perp.

    H is given by its element coords and must be isotropic and nontrivial.
    """
    a, r = module, module.rank
    h_gens = greedy_generators_reference(a, [a.element(c) for c in sorted(h_coords)])
    perp = orthogonal_complement_reference(a, h_coords)
    perp_gens = greedy_generators_reference(a, [a.element(c) for c in perp])
    diag = [[a.orders[i] * (i == j) for j in range(r)] for i in range(r)]

    def column_basis(gens):
        cols = [list(g.coords) for g in gens] + diag
        return transpose(image_basis([list(col) for col in zip(*cols)]))

    m1, m2 = column_basis(perp_gens), column_basis(h_gens)
    m1_inv = invert_rational(m1)
    t = [[int(x) for x in row] for row in mat_mul(m1_inv, m2)]
    d, u, _v = smith_normal_form(t)
    u_inv = [[int(x) for x in row] for row in invert_rational(u)]
    kept = [i for i in range(r) if d[i] > 1]
    sections = [a.element([sum(m1[i][k] * u_inv[k][j] for k in range(r)) for i in range(r)])
                for j in kept]
    b = fqm.FiniteQuadraticModule(tuple(d[i] for i in kept), [x.q() for x in sections],
                                  [[x.bil(y) for y in sections] for x in sections])

    def proj(x):
        w = mat_vec(u, [int(v) for v in mat_vec(m1_inv, list(x.coords))])
        return b.element(tuple(w[i] % d[i] for i in kept))

    return b, proj


def subquotient_fraction_reference(a, h):
    """(b, proj, sect) for H^perp/H through the rational inverses of P and v.

    The route fqm.subquotient took before it became integer algebra: T = H*P^-1
    for the Hermite rows P of H^perp, u*T*v = diag(d), sections the rows of
    v^-1*P and proj(x) = x*P^-1*v. The presentation of b, and so proj and sect,
    must agree exactly with fqm.subquotient. H must be isotropic and nontrivial.
    """
    r = a.rank
    perp = fqm.orthogonal_complement(a, h)
    p_inv = invert_rational(perp.hnf)
    t = mat_mul(h.hnf, p_inv)
    t_int = [[int(x) for x in row] for row in t]
    if t != t_int:
        raise ConsistencyError("subgroup lattice is not contained in complement lattice")
    d, _u, v = smith_normal_form(t_int)
    basis = mat_mul([[int(x) for x in row] for row in invert_rational(v)], perp.hnf)
    coords_of = mat_mul(p_inv, v)
    kept = [i for i in range(r) if d[i] > 1]
    sections = [a.element(basis[i]) for i in kept]
    b = fqm.FiniteQuadraticModule([d[i] for i in kept], [x.q() for x in sections],
                                  [[x.bil(y) for y in sections] for x in sections])

    def proj(x):
        c = [sum(xi * row[i] for xi, row in zip(x.coords, coords_of)) for i in range(r)]
        if any(ci.denominator != 1 for ci in c):
            raise PreconditionError("element is not in the orthogonal complement")
        return b.element(tuple(int(c[i]) % d[i] for i in kept))

    def sect(x):
        out = a.zero()
        for c, s in zip(x.coords, sections):
            out = out + c * s
        return out

    return b, proj, sect


def fqm_from_gram_reference(gram):
    """(module, gen_vectors) with Q and the pairings summed in Fractions over the generators."""
    gram = [[int(x) for x in row] for row in gram]
    n = len(gram)
    d, _u, v = smith_normal_form(gram)
    kept = [i for i in range(n) if d[i] > 1]
    gens = [[Fraction(v[r][i], d[i]) for r in range(n)] for i in kept]

    def b_of(v1, v2):
        return sum((v1[r] * gram[r][s] * v2[s] for r in range(n) for s in range(n)), Fraction(0))

    module = fqm.FiniteQuadraticModule(
        tuple(d[i] for i in kept), [b_of(g, g) / 2 for g in gens],
        [[b_of(g, h) for h in gens] for g in gens])
    return module, gens


def gram_form_reference(gram):
    """(orders, Q(g_i), (g_i, g_j)) in Fractions, as fqm_from_gram_with_maps built them.

    Generator i is column i of v over d_i, and the Fractions are read from v^T G v
    before they are reduced mod 1: Q(g_i) = w_ii/(2 d_i^2), (g_i, g_j) = w_ij/(d_i d_j).
    """
    gram = even_gram(gram)
    n = len(gram)
    d, _u, v = smith_normal_form(gram)
    kept = [i for i in range(n) if d[i] > 1]
    w = mat_mul(mat_mul(transpose(v), gram), v)
    return (tuple(d[i] for i in kept), tuple(Fraction(w[i][i], 2 * d[i] ** 2) for i in kept),
            tuple(tuple(Fraction(w[i][j], d[i] * d[j]) for j in kept) for i in kept))


def subquotient_form_reference(a, h):
    """(orders, Q(s_i), (s_i, s_j)) in Fractions, as fqm.subquotient built them.

    The sections s_i are read from the Smith form of H solved against the Hermite
    rows of H^perp, and their Q values and pairings are the parent's N*Q and
    N*(s_i, s_j) over N = a.level(). H must be isotropic and nontrivial.
    """
    n, r = a.level(), a.rank
    perp = fqm.orthogonal_complement(a, h).hnf
    d, u, _v = smith_normal_form([solve_hermite(perp, row) for row in h.hnf])
    kept = [i for i in range(r) if d[i] > 1]
    uh = mat_mul(u, h.hnf)
    sections = [a.element([x // d[i] for x in uh[i]]) for i in kept]
    rows = [a._pairing_row(x.coords) for x in sections]
    return ([d[i] for i in kept], [Fraction(a.nq_value(x), n) for x in sections],
            [[Fraction(sum(map(mul, x.coords, row)) % n, n) for row in rows] for x in sections])


def matrix_model_form_reference(p):
    """(orders, Q(g_i), (g_i, g_j)) of fqm.matrix_model_module(p), in Fractions.

    Q vanishes on the generators; p*det pairs c11 with c22 to 1/p and c12 with c21 to -1/p.
    """
    h = Fraction(1, p)
    z = Fraction(0)
    return (p, p, p, p), (z, z, z, z), ((z, z, z, h), (z, z, -h % 1, z), (z, -h % 1, z, z),
                                        (h, z, z, z))


# -- the flat-dict q-series, kept as the oracle for the component store --------


class FlatQSeriesReference:
    """A series as one dict {(coords, Fraction m): value}, with the checks of set.

    The storage that qseries.VectorValuedQSeries replaced; every operation
    scans the whole dict.
    """

    def __init__(self, module, weight, truncation):
        self.module = module
        self.weight = Fraction(weight)
        self.truncation = Fraction(truncation)
        self.coefficients = {}

    def copy(self):
        out = FlatQSeriesReference(self.module, self.weight, self.truncation)
        out.coefficients = dict(self.coefficients)
        return out

    def set(self, mu, m, value):
        m = Fraction(m)
        if m % 1 != mu.q():
            raise PreconditionError("exponent %s is not congruent to Q(%s) mod 1" % (m, mu))
        if m > self.truncation:
            raise PreconditionError("exponent exceeds the truncation bound")
        key = (mu.coords, m)
        if _is_zero_value(value):
            self.coefficients.pop(key, None)
        else:
            self.coefficients[key] = value

    def get(self, mu, m):
        return self.coefficients.get((mu.coords, Fraction(m)), 0)

    def component(self, mu):
        return {m: v for (c, m), v in self.coefficients.items() if c == mu.coords}

    def support(self):
        return sorted(set(c for (c, _m) in self.coefficients))

    def __add__(self, other):
        if self.module != other.module or self.weight != other.weight:
            raise PreconditionError("series are not compatible")
        out = FlatQSeriesReference(self.module, self.weight,
                                   min(self.truncation, other.truncation))
        for (c, m), v in self.coefficients.items():
            if m <= out.truncation:
                out.coefficients[c, m] = v
        for (c, m), v in other.coefficients.items():
            if m <= out.truncation:
                w = out.coefficients.get((c, m), 0) + v
                if _is_zero_value(w):
                    out.coefficients.pop((c, m), None)
                else:
                    out.coefficients[c, m] = w
        return out

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        out = FlatQSeriesReference(self.module, self.weight, self.truncation)
        for key, v in self.coefficients.items():
            w = v * scalar
            if not _is_zero_value(w):
                out.coefficients[key] = w
        return out

    def is_zero(self):
        return all(_is_zero_value(v) for v in self.coefficients.values())

    def __eq__(self, other):
        if self.module != other.module:
            return False
        keys = set(self.coefficients) | set(other.coefficients)
        return all(self.coefficients.get(key, 0) == other.coefficients.get(key, 0)
                   for key in keys)


def flat_up_arrow_reference(g, module, h):
    """qseries.up_arrow on the flat dict: every coefficient copied to each mu of its fiber."""
    _b, _proj, _sect, fibers = reduction(module, h)
    out = FlatQSeriesReference(module, g.weight, g.truncation)
    for (c, m), v in g.coefficients.items():
        for mu in fibers[c]:
            out.coefficients[mu, m] = v
    return out


def flat_down_arrow_reference(f, h):
    """qseries.down_arrow on the flat dict: fiber sums stored through set."""
    b, _proj, _sect, fibers = reduction(f.module, h)
    owner = {mu: nu for nu, mus in fibers.items() for mu in mus}
    sums = {}
    for (c, m), v in f.coefficients.items():
        nu = owner.get(c)
        if nu is not None:
            key = (nu, m)
            sums[key] = sums[key] + v if key in sums else v
    out = FlatQSeriesReference(b, f.weight, f.truncation)
    for (nu, m), v in sums.items():
        out.set(b.element(nu), m, v)
    return out


def flat_pairing_at_reference(f, g, m):
    """qseries.pairing_at by a scan over every stored coefficient."""
    m = Fraction(m)
    total = 0
    for (c, mm), v in f.coefficients.items():
        if mm == m:
            w = g.coefficients.get((c, mm), 0)
            if not _is_zero_value(w):
                total = total + v * _conj(w)
    return total


def flat_write_series_reference(f):
    """qseries.write_series on the flat dict, records sorted by (coords, m)."""
    lines = ["module: " + ",".join(str(d) for d in f.module.orders),
             "weight: %d/%d" % (f.weight.numerator, f.weight.denominator),
             "truncation: %d/%d" % (f.truncation.numerator, f.truncation.denominator)]
    for (c, m), v in sorted(f.coefficients.items()):
        if isinstance(v, CyclotomicNumber):
            text = repr(v)
        else:
            v = Fraction(v)
            text = "%d/%d" % (v.numerator, v.denominator)
        lines.append("mu=(%s) m=%d/%d coeff=%s" % (
            ",".join(str(x) for x in c), m.numerator, m.denominator, text))
    return "\n".join(lines) + "\n"


def parse_rational_reference(x):
    """_intmat.parse_rational with every text through Fraction(text) and the exponent bound."""
    if isinstance(x, str) and ("e" in x or "E" in x):
        if abs(int(x.lower().partition("e")[2])) > DECIMAL_EXPONENT_BOUND:
            raise ValueError("decimal exponent of %r exceeds %d" % (x, DECIMAL_EXPONENT_BOUND))
    return Fraction(x)


def flat_read_series_reference(text, module):
    """The reader that sets one record at a time: a later record of the same (mu, m) wins."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    weight, truncation = (parse_rational_reference(ln.split(":", 1)[1].strip())
                          for ln in lines[1:3])
    out = FlatQSeriesReference(module, weight, truncation)
    for ln in lines[3:]:
        fields = dict(part.split("=", 1) for part in ln.split(" ", 2))
        coords = tuple(int(x) for x in fields["mu"].strip("()").split(",") if x != "")
        out.set(module.element(coords), parse_rational_reference(fields["m"]),
                parse_value_reference(fields["coeff"]))
    return out


def parse_value_reference(text):
    """qseries._parse_value adding one CyclotomicNumber per term, each sum promoting."""
    try:
        text = text.strip()
        if "z" not in text:
            return parse_rational_reference(text)
        total = CyclotomicNumber.zero()
        for part in text.split("+"):
            part = part.strip()
            if "*" in part:
                coeff, power = part.split("*")
                modulus, exponent = power.strip().lstrip("z").split("^")
                modulus = int(modulus)
                if not 1 <= modulus <= ROOT_ORDER_BOUND:
                    raise ValueError("root of unity order out of range")
                coeff = parse_rational_reference(coeff)
                total = total + CyclotomicNumber(modulus, {int(exponent): coeff})
            else:
                total = total + parse_rational_reference(part)
        return total
    except (ValueError, ZeroDivisionError):
        raise PreconditionError("malformed coefficient %r" % text) from None


def eta_quotient_reference(exponents, truncation):
    """lifts.eta_quotient by a loop over the factors (1 - q^{dm}), O(|r| n^2 / d).

    Each factor multiplies (r > 0) or divides (r < 0) the dense expansion in
    place; the pentagonal kernel of lifts.eta_quotient is checked against it.
    """
    truncation = Fraction(truncation)
    prefix = sum(Fraction(d * r, 24) for d, r in exponents.items())
    n_terms = int(truncation - prefix)
    assert n_terms >= 0
    poly = [0] * (n_terms + 1)
    poly[0] = 1
    for d, r in sorted(exponents.items()):
        for m in range(1, n_terms // d + 1):
            s = d * m
            for _ in range(max(r, 0)):
                for i in range(n_terms, s - 1, -1):
                    poly[i] -= poly[i - s]
            for _ in range(max(-r, 0)):
                for i in range(s, n_terms + 1):
                    poly[i] += poly[i - s]
    return {prefix + j: Fraction(c) for j, c in enumerate(poly) if c}


def vector_lift_reference(a, a_tilde, module, k, p, n, truncation):
    """lifts.vector_lift_closed by a loop over module.elements().

    The coefficient at (m, mu) is p^{-(k+n)/2} a_tilde(pm), plus a(m) at mu = 0.
    """
    scale = Fraction(1, p ** int((Fraction(k) + n) / 2))
    out = VectorValuedQSeries(module, k, truncation)
    level = out.level
    by_residue = {}
    for mu in module.elements():
        if mu.is_zero():
            continue
        r = module.nq_value(mu)
        if r not in by_residue:
            comp = {}
            for e in range(r, out.k_max + 1, level):
                v = scale * a_tilde.get(Fraction(p * e, level))
                if v:
                    comp[e] = v
            by_residue[r] = comp
        if by_residue[r]:
            out.components[mu.coords] = by_residue[r]
    zero = {}
    for e in range(0, out.k_max + 1, level):
        v = a.get(e // level) + scale * a_tilde.get(Fraction(p * e, level))
        if v:
            zero[e] = v
    if zero:
        out.components[module.zero().coords] = zero
    return out
