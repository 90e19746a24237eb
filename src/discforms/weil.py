"""The Weil representation of the metaplectic group on the group algebra C[A].

Matrices carry a factored scalar (the Gauss-sum normalization of the S matrix)
so that entries of generator words stay single roots of unity or short sums.
The generators are built from integer exponents at the common modulus
lcm(8, level). Products run one of two kernels, chosen from the factors (see
WeilMatrix): the phase kernel when every entry of both factors is a single
root of unity, which counts exponent sums, and the support kernel otherwise,
which skips zero entries so that diagonal and monomial factors cost O(n^2).
Equality tests memoize reduced zero-tests per distinct entry pair.
"""

import cmath
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from . import cyclo, fqm
from .cyclo import CyclotomicNumber, e_frac
from .errors import ConsistencyError, PreconditionError


class MetaplecticElement:
    """Pair (M, phi) with M integral of determinant one and phi^2 = c*tau + d.

    The branch is recorded by one bit: 0 when phi agrees with the principal
    square root at tau = i, 1 otherwise. Products track the branch through the
    cocycle numerically at tau = i; values stay away from zero, so the sign
    decision is exact in effect.
    """

    __slots__ = ("a", "b", "c", "d", "bit")

    def __init__(self, matrix, bit=0):
        (self.a, self.b), (self.c, self.d) = matrix
        if self.a * self.d - self.b * self.c != 1:
            raise PreconditionError("matrix must have determinant one")
        self.bit = bit & 1

    @property
    def matrix(self):
        return ((self.a, self.b), (self.c, self.d))

    def phi_at(self, tau):
        return (-1) ** self.bit * cmath.sqrt(self.c * tau + self.d)

    def __matmul__(self, other):
        if not isinstance(other, MetaplecticElement):
            return NotImplemented
        i = 1j
        tau2 = (other.a * i + other.b) / (other.c * i + other.d)
        val = self.phi_at(tau2) * other.phi_at(i)
        m = ((self.a * other.a + self.b * other.c, self.a * other.b + self.b * other.d),
             (self.c * other.a + self.d * other.c, self.c * other.b + self.d * other.d))
        principal = cmath.sqrt(m[1][0] * i + m[1][1])
        bit = 0 if abs(val - principal) < abs(val + principal) else 1
        return MetaplecticElement(m, bit)

    def inverse(self):
        m = ((self.d, -self.b), (-self.c, self.a))
        for bit in (0, 1):
            cand = MetaplecticElement(m, bit)
            prod = self @ cand
            if prod.matrix == ((1, 0), (0, 1)) and prod.bit == 0:
                return cand
        raise ConsistencyError("no inverse branch found")

    def __pow__(self, n):
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


class WeilMatrix:
    """Square matrix over Q(zeta_mod), stored as scale * entries.

    Rows and columns are indexed by module.elements() in their fixed order;
    .mat is a dense list of rows of CyclotomicNumbers, all at the modulus
    .mod = lcm(8, level); entries given at a divisor of it are promoted. A
    product of two matrices is taken by one of two kernels, chosen from the
    factors:

    - the phase kernel, when every entry of both factors is a single root of
      unity with coefficient 1 (S, S^dagger, T^k S, S Z, S P, ...). Each factor
      becomes an integer exponent matrix, and entry (i, j) of the product is
      the histogram of the sums ea[i][t] + eb[t][j] mod `mod`, counted in C;
    - the support kernel for every other pair. Entry (i, j) sums only over the
      t in the supports of row i of the left factor and of column j of the
      right one, iterating the shorter of the two, so a diagonal or monomial
      factor (T, Z, automorphisms) makes the product O(n^2) instead of O(n^3).
    """

    def __init__(self, module, scale, mat):
        self.module = module
        self.mod = mod = _modulus(module)
        self.scale = scale if isinstance(scale, CyclotomicNumber) else \
            CyclotomicNumber.from_rational(scale)
        self.mat = [[x._promoted(mod) if x.mod != mod else x for x in row] for row in mat]

    @property
    def size(self):
        return len(self.mat)

    def entry(self, i, j):
        return self.scale * self.mat[i][j]

    def __matmul__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        if other.module != self.module:
            raise PreconditionError("matrices act on different modules")
        ea = _exponents(self.mat)
        eb = None if ea is None else _exponents(other.mat)
        if eb is None:
            out = _support_product(self.mat, other.mat, self.mod)
        else:
            out = _phase_product(ea, eb, self.mod)
        return WeilMatrix(self.module, self.scale * other.scale, out)

    def conj_transpose(self):
        n = self.size
        mat = [[self.mat[j][i].conjugate() for j in range(n)] for i in range(n)]
        return WeilMatrix(self.module, self.scale.conjugate(), mat)

    def scaled(self, c):
        return WeilMatrix(self.module, self.scale * c, self.mat)

    def __eq__(self, other):
        if not isinstance(other, WeilMatrix) or other.module != self.module:
            return NotImplemented
        n = self.size
        # entries with the same coefficient map at equal scales are equal
        # without a zero test; the rest are memoized by content
        same_scale = self.scale == other.scale
        memo = {}
        for i in range(n):
            for j in range(n):
                a = self.mat[i][j]
                b = other.mat[i][j]
                if same_scale and (a is b or (a.mod == b.mod and a.coeffs == b.coeffs)):
                    continue
                key = (a.mod, frozenset(a.coeffs.items()), b.mod, frozenset(b.coeffs.items()))
                ok = memo.get(key)
                if ok is None:
                    ok = (self.scale * a - other.scale * b).is_zero()
                    memo[key] = ok
                if not ok:
                    return False
        return True

    def is_identity(self):
        return self == identity_matrix(self.module)

    def to_complex(self):
        s = self.scale.to_complex()
        return [[s * x.to_complex() for x in row] for row in self.mat]


def _modulus(module):
    """The common modulus lcm(8, level) of the module's Weil matrices."""
    return lcm(8, module.level())


def _exponents(mat):
    """Exponent rows of mat if every entry is one root of unity with coefficient 1.

    Returns None as soon as an entry is zero, has several terms or another
    coefficient.
    """
    out = []
    for row in mat:
        exps = []
        for x in row:
            if len(x.coeffs) != 1:
                return None
            (e, c), = x.coeffs.items()
            if c != 1:
                return None
            exps.append(e)
        out.append(exps)
    return out


def _phase_product(ea, eb, mod):
    """Product of two root-of-unity matrices given by their exponent rows.

    Entry (i, j) is the histogram of ea[i][t] + eb[t][j] over t; the sums lie
    in [0, 2*mod - 1) and the lookup table folds them below mod.
    """
    fold = list(range(mod)) * 2
    wrap = fold.__getitem__
    normal = CyclotomicNumber._normalized
    cols = list(zip(*eb))
    return [[normal(mod, dict(Counter(map(wrap, map(add, r, c))))) for c in cols]
            for r in ea]


def _support_product(a, b, mod):
    """Product of dense entry rows, each entry summed over shared supports only."""
    rows = [{t: x.coeffs for t, x in enumerate(row) if x.coeffs} for row in a]
    cols = [{} for _ in b]
    for t, row in enumerate(b):
        for j, y in enumerate(row):
            if y.coeffs:
                cols[j][t] = y.coeffs
    zero = CyclotomicNumber(mod, {})
    out = []
    for r in rows:
        row = []
        for c in cols:
            short, other = (r, c) if len(r) <= len(c) else (c, r)
            acc = {}
            for t, x in short.items():
                y = other.get(t)
                if y is None:
                    continue
                for e1, c1 in x.items():
                    for e2, c2 in y.items():
                        e = e1 + e2
                        if e >= mod:
                            e -= mod
                        acc[e] = acc.get(e, 0) + c1 * c2
            row.append(CyclotomicNumber(mod, acc) if acc else zero)
        out.append(row)
    return out


def _index(module):
    return {x.coords: i for i, x in enumerate(module.elements())}


def identity_matrix(module):
    return permutation_matrix(module, module.elements())


def permutation_matrix(module, images):
    """Matrix sending basis vector e_x to e_{images[x]}."""
    idx = _index(module)
    n = module.order()
    mod = _modulus(module)
    zero = CyclotomicNumber._normalized(mod, {})
    one = CyclotomicNumber._normalized(mod, {0: 1})
    mat = [[zero] * n for _ in range(n)]
    for j in range(n):
        mat[idx[images[j].coords]][j] = one
    return WeilMatrix(module, CyclotomicNumber.one(), mat)


def rho_T(module, power=1):
    """Diagonal action by e(Q(x)) (or its integer powers)."""
    n = module.order()
    mod = _modulus(module)
    normal = CyclotomicNumber._normalized
    mat = [[normal(mod, {})] * n for _ in range(n)]
    for j, x in enumerate(module.elements()):
        # mod is a multiple of the level, so mod * Q(x) is an integer
        mat[j][j] = normal(mod, {int(power * mod * x.q()) % mod: 1})
    return WeilMatrix(module, CyclotomicNumber.one(), mat)


def rho_S(module):
    """The Fourier-transform generator: entries e(-(x,y)) scaled by the Gauss phase.

    The exponent of entry (x, y) is -mod * (x, y) mod `mod`, read from the
    integer matrix mod * bilinear; mod is a multiple of every denominator of
    the pairing, so this is exact.
    """
    mod = _modulus(module)
    scale = e_frac(Fraction(-module.signature(), 8)) * cyclo.sqrt_card(module) \
        * Fraction(1, module.order())
    gram = [[int(mod * b) for b in row] for row in module.bilinear]
    coords = [x.coords for x in module.elements()]
    normal = CyclotomicNumber._normalized
    mat = []
    for x in coords:
        w = [sum(map(mul, row, x)) for row in gram]
        mat.append([normal(mod, {-sum(map(mul, w, y)) % mod: 1}) for y in coords])
    return WeilMatrix(module, scale, mat)


def rho_Z(module):
    """Action of the central element: e(-sig/4) times the negation permutation."""
    out = permutation_matrix(module, [-x for x in module.elements()])
    return out.scaled(e_frac(Fraction(-module.signature(), 4)))


def rho_ST(module):
    return rho_S(module) @ rho_T(module)


def aut_matrix(module, h):
    """Permutation matrix of a Q-preserving automorphism."""
    if not isinstance(h, fqm.Automorphism):
        raise PreconditionError("expected a checked automorphism")
    return permutation_matrix(module, [h(x) for x in module.elements()])


def _word_in_generators(matrix):
    """Write an SL2(Z) matrix as a word in T powers, S, and Z."""
    (a, b), (c, d) = matrix
    word = []
    while c != 0:
        n = a // c
        word.append(("T", n))
        word.append(("S", 1))
        # continue with S^{-1} T^{-n} M
        a, b, c, d = c, d, -(a - n * c), -(b - n * d)
    # now the matrix is upper triangular with a = d = +-1
    if a == 1:
        word.append(("T", b))
    else:
        word.append(("Z", 1))
        word.append(("T", -b))
    return word


def rho_of(module, g):
    """Evaluate the representation on an arbitrary metaplectic element.

    The matrix is decomposed into a word in the generators by a continued
    fraction on its first column; the branch bit is matched by comparing the
    word's metaplectic product with the requested element.
    """
    if not isinstance(g, MetaplecticElement):
        g = MetaplecticElement(g)
    word = _word_in_generators(g.matrix)
    out = identity_matrix(module)
    acc = MetaplecticElement(((1, 0), (0, 1)))
    t_elt = gen_T()
    s_elt = gen_S()
    for kind, n in word:
        if kind == "T":
            if n:
                out = out @ rho_T(module, n)
                acc = acc @ t_elt ** n
        elif kind == "S":
            out = out @ rho_S(module)
            acc = acc @ s_elt
        else:
            out = out @ rho_Z(module)
            acc = acc @ gen_Z()
    if acc.matrix != g.matrix:
        raise ConsistencyError("word reduction did not reproduce the matrix")
    if acc.bit != g.bit:
        # the two lifts differ by the order-two central element Z^2
        out = out.scaled(e_frac(Fraction(-module.signature(), 2)))
    return out


# -- the symmetrized subspace --------------------------------------------------


def plus_subspace(module, k):
    """Basis data and restricted generator matrices on the symmetrized subspace.

    k is the weight; 2k must be congruent to the signature mod 4 so that the
    central element acts by e(-k/2) on the subspace. Returns
    (reps, weights, t_mat, s_mat, st_mat) where reps are orbit representatives,
    weights are the squared norms of the basis vectors e_x + e_{-x} (1 when
    2x = 0), and the matrices are WeilMatrix-style pairs (scale, rows).
    """
    fqm.check_weight_parity(module, k)
    reps = fqm.orbit_representatives(module)
    weights = [1 if (x + x).is_zero() else 2 for x in reps]
    idx = _index(module)

    def restrict(full):
        rows = []
        for x in reps:
            row = []
            xi = idx[x.coords]
            for y in reps:
                v = full.mat[xi][idx[y.coords]]
                if not (y + y).is_zero():
                    v = v + full.mat[xi][idx[(-y).coords]]
                row.append(v)
            rows.append(row)
        return WeilMatrix(module, full.scale, rows)

    t_mat = restrict(rho_T(module))
    s_mat = restrict(rho_S(module))
    st_mat = restrict(rho_ST(module))
    return reps, weights, t_mat, s_mat, st_mat


# -- relation suite -------------------------------------------------------------


# relation_report also runs the naive triple-product braid check up to this order
DIRECT_CUBE_BOUND = 40


def relation_report(module):
    """Exact verification of the defining relations; returns {name: bool}.

    The braid relation is checked via the reassociated identity
    T S T = S^{-1} Z T^{-1} S^{-1} (with S^{-1} the conjugate transpose,
    justified by the unitarity check); modules of order up to
    DIRECT_CUBE_BOUND also run the naive triple-product form.
    """
    s = rho_S(module)
    t = rho_T(module)
    z = rho_Z(module)
    out = {}
    s_dag = s.conj_transpose()
    out["unitary_S"] = (s @ s_dag).is_identity()
    out["S2_equals_Z"] = (s @ s) == z
    t_inv = rho_T(module, -1)
    lhs = t @ s @ t
    rhs = (s_dag @ z) @ (t_inv @ s_dag)
    out["braid_STSTST_equals_Z"] = lhs == rhs
    if module.order() <= DIRECT_CUBE_BOUND:
        st = s @ t
        out["braid_direct"] = (st @ st @ st) == z
    # Z acts by e(-sig/4) on e_{-x}
    zz = z @ z
    out["Z_squared_scalar"] = zz == identity_matrix(module).scaled(
        e_frac(Fraction(-module.signature(), 2)))
    neg = fqm.negation_automorphism(module)
    p = aut_matrix(module, neg)
    out["negation_is_unit_times_Z"] = p == z.scaled(e_frac(Fraction(module.signature(), 4)))
    out["aut_commutes_S"] = (p @ s) == (s @ p)
    out["aut_commutes_T"] = (p @ t) == (t @ p)
    try:
        ph = fqm.phi_r(module, _coprime_unit(module))
        m = aut_matrix(module, ph)
        out["phi_r_commutes_S"] = (m @ s) == (s @ m)
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
