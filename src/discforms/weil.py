"""The Weil representation of the metaplectic group on the group algebra C[A].

Matrices carry a factored scalar (the Gauss-sum normalization of the S matrix)
so that entries of generator words stay single roots of unity or short sums;
equality tests memoize reduced zero-tests per distinct entry pair.
"""

import cmath
from fractions import Fraction
from math import gcd, lcm

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
    """Square matrix over Q(zeta), stored as scale * entries.

    Rows and columns are indexed by module.elements() in their fixed order.
    """

    def __init__(self, module, scale, mat, mod=None):
        self.module = module
        if mod is None:
            mod = lcm(8, module.level())
        self.mod = mod
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
        mod = lcm(self.mod, other.mod)
        a = self if self.mod == mod else WeilMatrix(self.module, self.scale, self.mat, mod)
        b = other if other.mod == mod else WeilMatrix(other.module, other.scale, other.mat, mod)
        n = self.size
        out = []
        for i in range(n):
            nz = [(t, a.mat[i][t].coeffs) for t in range(n) if a.mat[i][t].coeffs]
            row = []
            for j in range(n):
                acc = {}
                for t, x in nz:
                    y = b.mat[t][j].coeffs
                    if not y:
                        continue
                    for e1, c1 in x.items():
                        for e2, c2 in y.items():
                            e = (e1 + e2) % mod
                            acc[e] = acc.get(e, 0) + c1 * c2
                row.append(CyclotomicNumber(mod, acc))
            out.append(row)
        return WeilMatrix(self.module, a.scale * b.scale, out, mod)

    def conj_transpose(self):
        n = self.size
        mat = [[self.mat[j][i].conjugate() for j in range(n)] for i in range(n)]
        return WeilMatrix(self.module, self.scale.conjugate(), mat, self.mod)

    def scaled(self, c):
        return WeilMatrix(self.module, self.scale * c, self.mat, self.mod)

    def __eq__(self, other):
        if not isinstance(other, WeilMatrix) or other.module != self.module:
            return NotImplemented
        n = self.size
        memo = {}
        for i in range(n):
            for j in range(n):
                a = self.mat[i][j]
                b = other.mat[i][j]
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


def _index(module):
    return {x.coords: i for i, x in enumerate(module.elements())}


def identity_matrix(module):
    n = module.order()
    one = CyclotomicNumber.one()
    zero = CyclotomicNumber.zero()
    return WeilMatrix(module, one,
                      [[one if i == j else zero for j in range(n)] for i in range(n)])


def permutation_matrix(module, images):
    """Matrix sending basis vector e_x to e_{images[x]}."""
    idx = _index(module)
    n = module.order()
    one = CyclotomicNumber.one()
    zero = CyclotomicNumber.zero()
    mat = [[zero] * n for _ in range(n)]
    for j, x in enumerate(module.elements()):
        mat[idx[images[j].coords]][j] = one
    return WeilMatrix(module, one, mat)


def rho_T(module, power=1):
    """Diagonal action by e(Q(x)) (or its integer powers)."""
    n = module.order()
    zero = CyclotomicNumber.zero()
    mat = [[zero] * n for _ in range(n)]
    for j, x in enumerate(module.elements()):
        mat[j][j] = e_frac(power * x.q())
    return WeilMatrix(module, CyclotomicNumber.one(), mat)


def rho_S(module):
    """The Fourier-transform generator: entries e(-(x,y)) scaled by the Gauss phase."""
    n = module.order()
    elts = module.elements()
    scale = e_frac(Fraction(-module.signature(), 8)) * cyclo.sqrt_card(module) \
        * Fraction(1, module.order())
    mat = [[e_frac(-elts[i].bil(elts[j])) for j in range(n)] for i in range(n)]
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
        return WeilMatrix(module, full.scale, rows, full.mod)

    t_mat = restrict(rho_T(module))
    s_mat = restrict(rho_S(module))
    st_mat = restrict(rho_ST(module))
    return reps, weights, t_mat, s_mat, st_mat


# -- relation suite -------------------------------------------------------------


def relation_report(module, direct_cube_bound=40):
    """Exact verification of the defining relations; returns {name: bool}.

    The braid relation is checked via the reassociated identity
    T S T = S^{-1} Z T^{-1} S^{-1} (with S^{-1} the conjugate transpose,
    justified by the unitarity check); small modules also run the naive
    triple-product form.
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
    if module.order() <= direct_cube_bound:
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
