"""Even lattices: Gram arithmetic, hyperbolic splittings, Eichler maps, norm counts.

Vectors are integer (or rational, for dual vectors) coordinate lists in the
fixed basis of the Gram matrix. Searches are bounded enumerations; absence
within a bound is reported as SearchExhausted, never as nonexistence.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

from . import fqm
from ._intmat import (determinant, even_gram, ext_gcd, image_basis, integer, invert_rational,
                      kernel_basis, mat_mul, mat_vec, rational, shape, signature_pair,
                      smith_normal_form, transpose)
from .errors import ConsistencyError, PreconditionError, SearchExhausted


class EvenLattice:
    """Non-degenerate even lattice given by its Gram matrix."""

    def __init__(self, gram):
        self.gram = even_gram(gram)
        self.rank = len(self.gram)
        self.det = determinant(self.gram)
        self._inv = None
        self._disc = None

    def gram_inverse(self):
        if self._inv is None:
            self._inv = invert_rational([list(r) for r in self.gram])
        return self._inv

    def signature(self):
        return signature_pair([list(r) for r in self.gram])

    def _vector(self, v, what):
        """v as a tuple of rank ints or Fractions, named by what in a refusal."""
        return shape(v, what, lambda x: rational(x, "entry of " + what), self.rank)

    def _gram_times(self, v):
        """G v for a vector v already read: its pairings with the standard basis."""
        return [sum(map(mul, row, v)) for row in self.gram]

    def bilinear(self, v, w):
        """(v, w) = v G w, a Fraction."""
        v, w = self._vector(v, "v"), self._vector(w, "w")
        return Fraction(sum(map(mul, v, self._gram_times(w))))

    def q_value(self, v):
        """Q(v) = (v, v)/2, a Fraction."""
        return self.bilinear(v, v) / 2

    def pairings(self, v):
        """The vector of pairings with the standard basis, (v, e_i), as Fractions."""
        return [Fraction(x) for x in self._gram_times(self._vector(v, "v"))]

    def in_dual(self, v):
        return all(x.denominator == 1 for x in self.pairings(v))

    def disc(self):
        """(module, projection to module coordinates) of the discriminant group."""
        if self._disc is None:
            self._disc = fqm.fqm_from_gram_with_maps([list(r) for r in self.gram])
        return self._disc[0], self._disc[1]

    def coset_representative(self, mu):
        """A dual vector representing the discriminant class mu."""
        module, _to = self.disc()
        if mu.module != module:
            raise PreconditionError("class does not belong to this discriminant group")
        gens = self._disc[2]
        return [sum(c * g[i] for c, g in zip(mu.coords, gens))
                for i in range(self.rank)]

    def level(self):
        """Level of L'/L: the least N > 0 with N * G^-1 integral of even diagonal.

        Read from the inverse Gram matrix, without building the discriminant group.
        """
        inv = self.gram_inverse()
        return lcm(*(inv[i][j].denominator for i in range(self.rank) for j in range(i)),
                   *((inv[i][i] / 2).denominator for i in range(self.rank)))

    def __repr__(self):
        return "EvenLattice(rank=%d, det=%d)" % (self.rank, self.det)


class LatticeMap:
    """Linear map on the ambient space, with exactness flags."""

    def __init__(self, lat, matrix):
        self.lattice = lat
        self.matrix = shape(matrix, "matrix", lambda x: Fraction(rational(x, "matrix entry")),
                            lat.rank, lat.rank)
        g = [list(r) for r in lat.gram]
        self.preserves_q = mat_mul(mat_mul(transpose(self.matrix), g), self.matrix) == g
        self.preserves_lattice = all(
            all(x.denominator == 1 for x in col)
            for col in ([row[j] for row in self.matrix] for j in range(lat.rank)))
        self.in_discriminant_kernel = False
        if self.preserves_lattice and self.preserves_q:
            _module, to_coords = lat.disc()
            gens = lat._disc[2]
            self.in_discriminant_kernel = all(
                to_coords(self(gv)) == to_coords(gv) for gv in gens)

    def __call__(self, v):
        return [sum(self.matrix[i][j] * Fraction(v[j]) for j in range(len(v)))
                for i in range(len(self.matrix))]

    def compose(self, other):
        return LatticeMap(self.lattice, mat_mul(self.matrix, other.matrix))

    def is_identity(self):
        n = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))


def eichler(lat, u, v):
    """The unipotent map a -> a - (a,u)v + (a,v)u - Q(v)(a,u)u.

    Requires u isotropic and orthogonal to v. When u, v are lattice vectors
    the map lies in the discriminant kernel; when u spans the level ideal and
    v is a dual vector orthogonal to u it still preserves the lattice.
    """
    u = shape(u, "u", lambda x: rational(x, "entry of u"), lat.rank)
    v = shape(v, "v", lambda x: rational(x, "entry of v"), lat.rank)
    if lat.q_value(u) != 0:
        raise PreconditionError("u must be isotropic")
    if lat.bilinear(u, v) != 0:
        raise PreconditionError("v must be orthogonal to u")
    n = lat.rank
    cols = []
    qv = lat.q_value(v)
    for j in range(n):
        a = [Fraction(int(i == j)) for i in range(n)]
        au = lat.bilinear(a, u)
        av = lat.bilinear(a, v)
        img = [a[i] - au * Fraction(v[i]) + av * Fraction(u[i]) - qv * au * Fraction(u[i])
               for i in range(n)]
        cols.append(img)
    return LatticeMap(lat, [[cols[j][i] for j in range(n)] for i in range(n)])


def find_isotropic_with_ideal(lat, n, search_bound):
    """First primitive isotropic vector with pairing ideal nZ, in box order."""
    n = integer(n, "pairing ideals", 1)
    search_bound = integer(search_bound, "search bounds", 0)
    rng = range(-search_bound, search_bound + 1)
    for x in product(rng, repeat=lat.rank):
        if not any(x):
            continue
        if gcd(*x) != 1:
            continue
        if lat.q_value(x) != 0:
            continue
        if gcd(*[int(p) for p in lat.pairings(x)]) == n:
            return list(x)
    raise SearchExhausted("no primitive isotropic vector with ideal %dZ within the box" % n)


def _primitive_isotropic(lat, ell):
    """ell as a list of ints, checked to be a primitive isotropic vector of lat."""
    ell = list(shape(ell, "ell", lambda x: integer(x, "ell entries"), lat.rank))
    if gcd(*ell) != 1:
        raise PreconditionError("ell must be primitive")
    if lat.q_value(ell) != 0:
        raise PreconditionError("ell must be isotropic")
    return ell


def _solve_unit_pairing(ell):
    """Integer x with x . ell = 1, via the extended gcd chain.

    _solve_scaled_pairing solves the same kind of equation by another chain
    (it skips zero entries and keeps each partial gcd positive) and picks a
    different solution. Both stay: this solution fixes split_UN's ell_tilde,
    which `discforms lattice split` prints, so merging the chains would change
    that output; test_gcd_chain_solutions_are_stable pins both choices.
    """
    n = len(ell)
    g = ell[0]
    cur = [1] + [0] * (n - 1)
    for i in range(1, n):
        g, s, t = ext_gcd(g, ell[i])
        cur = [s * c for c in cur]
        cur[i] += t
    if abs(g) != 1:
        raise PreconditionError("vector is not primitive")
    if g == -1:
        cur = [-c for c in cur]
    return cur


def split_UN(lat, ell):
    """Split off a rescaled hyperbolic plane along a level-ideal isotropic vector.

    Returns (ell_tilde, k_lattice, basis_change) where the rows of basis_change
    are a new basis (K basis, ell_tilde, ell) in which the Gram matrix is block
    diagonal with trailing block [[0, N], [N, 0]].
    """
    n_level = lat.level()
    ell = _primitive_isotropic(lat, ell)
    pair = [int(p) for p in lat.pairings(ell)]
    ideal = gcd(*pair)
    if ideal != n_level:
        raise PreconditionError("pairing ideal (%d) must equal the level (%d)"
                                % (ideal, n_level))
    # (sum x_i delta_i, ell) = sum x_i ell_i, so a unit pairing needs x . ell = 1
    x = _solve_unit_pairing(ell)
    ginv = lat.gram_inverse()
    ell_prime = [sum(ginv[i][j] * x[j] for j in range(lat.rank)) for i in range(lat.rank)]
    q_ep = lat.q_value(ell_prime)
    ell_tilde = [n_level * (ell_prime[i] - q_ep * ell[i]) for i in range(lat.rank)]
    if any(t.denominator != 1 for t in ell_tilde):
        raise ConsistencyError("companion isotropic vector is not integral")
    ell_tilde = [int(t) for t in ell_tilde]
    if lat.q_value(ell_tilde) != 0 or lat.bilinear(ell_tilde, ell) != n_level:
        raise ConsistencyError("companion vector fails its defining relations")
    pair_t = [int(p) for p in lat.pairings(ell_tilde)]
    proj_cols = []
    for j in range(lat.rank):
        a = pair[j] // n_level
        b = pair_t[j] // n_level
        col = [int(int(i == j) - a * ell_tilde[i] - b * ell[i]) for i in range(lat.rank)]
        proj_cols.append(col)
    k_basis = image_basis([[proj_cols[j][i] for j in range(lat.rank)]
                           for i in range(lat.rank)])
    if len(k_basis) != lat.rank - 2:
        raise ConsistencyError("complement does not have corank two")
    rows = k_basis + [ell_tilde, ell]
    if abs(determinant(rows)) != 1:
        raise ConsistencyError("new basis is not unimodular")
    g = [list(r) for r in lat.gram]
    new_gram = mat_mul(mat_mul(rows, g), transpose(rows))
    m = lat.rank - 2
    for i in range(m):
        if new_gram[i][m] or new_gram[i][m + 1]:
            raise ConsistencyError("complement block is not orthogonal")
    if [new_gram[m][m], new_gram[m][m + 1], new_gram[m + 1][m], new_gram[m + 1][m + 1]] != \
            [0, n_level, n_level, 0]:
        raise ConsistencyError("hyperbolic block has the wrong Gram matrix")
    k_lat = EvenLattice([row[:m] for row in new_gram[:m]])
    return ell_tilde, k_lat, rows


def sublattice_K0(lat, ell):
    """The finite-index sublattice pairing with ell in the full level ideal.

    Returns (k0, basis, index): basis rows express the sublattice in the
    ambient coordinates; the index equals level / (pairing ideal of ell).
    """
    ell = _primitive_isotropic(lat, ell)
    n_level = lat.level()
    c = [int(p) for p in lat.pairings(ell)]
    n_ell = gcd(*c)
    if n_level % n_ell:
        raise ConsistencyError("pairing ideal does not divide the level")
    t = n_level // n_ell
    cols = [[n_level * int(i == j) for i in range(lat.rank)] for j in range(lat.rank)]
    cols += kernel_basis([c])
    x0 = _solve_scaled_pairing(c, n_ell)
    cols.append([(n_level // gcd(n_ell, n_level)) * v for v in x0])
    basis = image_basis([[col[i] for col in cols] for i in range(lat.rank)])
    if abs(determinant(basis)) != t:
        raise ConsistencyError("sublattice index mismatch")
    g = [list(r) for r in lat.gram]
    k0 = EvenLattice(mat_mul(mat_mul(basis, g), transpose(basis)))
    if k0.level() != n_level:
        raise ConsistencyError("sublattice level changed")
    return k0, basis, t


def _solve_scaled_pairing(c, g):
    """Integer x with c . x = g = gcd(c).

    Not merged with _solve_unit_pairing: the two chains pick different
    solutions, the choice shows in `discforms lattice split` output, and
    test_gcd_chain_solutions_are_stable pins both.
    """
    n = len(c)
    out = [0] * n
    cur_g = 0
    for i in range(n):
        if c[i] == 0:
            continue
        if cur_g == 0:
            cur_g = abs(c[i])
            out = [0] * n
            out[i] = 1 if c[i] > 0 else -1
            continue
        g_i, s, t = ext_gcd(cur_g, c[i])
        if g_i < 0:
            g_i, s, t = -g_i, -s, -t
        out = [s * v for v in out]
        out[i] += t
        cur_g = g_i
    if cur_g != g:
        raise ConsistencyError("gcd chain did not reach the pairing ideal")
    return out


def express_in_basis(basis_rows, v):
    """Coordinates of v in the row basis; raises if not integral."""
    v = shape(v, "v", lambda x: rational(x, "entry of v"), None)
    basis_rows = shape(basis_rows, "basis", lambda x: rational(x, "basis entry"), len(v), len(v))
    inv = invert_rational(transpose(basis_rows))
    y = mat_vec(inv, v)
    if any(c.denominator != 1 for c in y):
        raise PreconditionError("vector does not lie in the sublattice")
    return [int(c) for c in y]


# -- norm counting ------------------------------------------------------------------


def _ldl(gram):
    """Diagonal d and unit-triangular u with Q(x) = sum d_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = len(gram)
    a = [[Fraction(gram[i][j], 2) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise PreconditionError("form is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for s in range(i + 1, n):
                a[r][s] -= a[r][i] * a[i][s] / d[i]
    return d, u


def count_norm_vectors(lat, m, mu, search_bound=10):
    """Count lattice-coset vectors of the given norm.

    mu is a rational coset representative (a dual vector). For positive
    definite lattices the count is exact (recursive bounded enumeration);
    otherwise a box search of the stated radius produces a lower bound and
    the flag comes back False.
    """
    m = rational(m, "norm")
    mu = shape(mu, "mu", lambda x: rational(x, "entry of mu"), lat.rank)
    search_bound = integer(search_bound, "search bounds", 0)
    q_mu = lat.q_value(mu) % 1
    if (m - q_mu) % 1 != 0:
        return 0, True
    bp, bm = lat.signature()
    if bm == 0 and bp == lat.rank:
        if m < 0:
            # a positive-definite lattice has no vector of negative norm
            return 0, True
        d, u = _ldl([list(r) for r in lat.gram])
        n = lat.rank
        count = 0

        def walk(i, rem, xs):
            nonlocal count
            if i < 0:
                if rem == 0:
                    count += 1
                return
            off = mu[i] + sum(u[i][j] * (xs[j] + mu[j]) for j in range(i + 1, n))
            # d_i (x + off)^2 <= rem
            bound = rem / d[i]
            approx = isqrt(int(bound)) + 2
            lo = int(-approx - off) - 2
            hi = int(approx - off) + 2
            for x in range(lo, hi + 1):
                term = d[i] * (x + off) ** 2
                if term <= rem:
                    walk(i - 1, rem - term, xs[:i] + [x] + xs[i + 1:])

        walk(n - 1, m, [0] * n)
        return count, True
    count = 0
    rng = range(-search_bound, search_bound + 1)
    for z in product(rng, repeat=lat.rank):
        vec = [z[i] + mu[i] for i in range(lat.rank)]
        if lat.q_value(vec) == m:
            count += 1
    return count, False


# -- the prime-level matrix model -----------------------------------------------------


def matrix_model_gram(p):
    """Gram matrix of the 2x2 integer matrices with p*det, basis E11 E12 E21 E22."""
    p = integer(p, "values of p")
    return [[0, 0, 0, p], [0, 0, -p, 0], [0, -p, 0, 0], [p, 0, 0, 0]]


def prime_split_lattice(d_gram, p):
    """The lattice (definite block) + (matrix model), as one Gram matrix."""
    d_gram = shape(d_gram, "d_gram", lambda x: integer(x, "d_gram entries"), None, None)
    nd = len(d_gram)
    mm = matrix_model_gram(p)
    n = nd + 4
    out = [[0] * n for _ in range(n)]
    for i in range(nd):
        for j in range(nd):
            out[i][j] = d_gram[i][j]
    for i in range(4):
        for j in range(4):
            out[nd + i][nd + j] = mm[i][j]
    return out


def _snf_2x2_sl2(x):
    """(g1, g2, diag) with g1 in SL2, g2 in SL2, and g1 @ x @ g2^{-1} = diag."""
    _d, u, v = smith_normal_form([[x[0][0], x[0][1]], [x[1][0], x[1][1]]])
    uu = [list(r) for r in u]
    vv = [list(r) for r in v]
    if determinant(uu) == -1:
        uu = [uu[0], [-y for y in uu[1]]]
    if determinant(vv) == -1:
        vv = [[vv[0][0], -vv[0][1]], [vv[1][0], -vv[1][1]]]
    diag = mat_mul(mat_mul(uu, [list(r) for r in x]), vv)
    if diag[0][1] or diag[1][0]:
        raise ConsistencyError("matrix was not diagonalized")
    g2 = [[int(y) for y in row] for row in invert_rational(vv)]
    return uu, g2, diag


def represent_norm_split(d_gram, p, m, lam0):
    """A vector of norm m, primitive in the dual, not divisible by p in the dual.

    Works in the (definite block) + (matrix model) lattice. lam0 is a witness
    lattice vector with norm in pZ whose dual pairings are not all divisible
    by p; the output shares its definite part in suitable coordinates.
    """
    lat = EvenLattice(prime_split_lattice(d_gram, p))
    p = integer(p, "values of p")
    nd = lat.rank - 4
    lam0 = list(shape(lam0, "lam0", lambda x: integer(x, "lam0 entries"), lat.rank))
    m = rational(m, "norm")
    m0 = lat.q_value(lam0)
    if m0 % p != 0 or m % p != 0:
        raise PreconditionError("norms must lie in pZ")
    pair0 = [int(x) for x in lat.pairings(lam0)]
    if all(x % p == 0 for x in pair0):
        raise PreconditionError("witness is divisible by p in the dual")
    x0 = [[lam0[nd], lam0[nd + 1]], [lam0[nd + 2], lam0[nd + 3]]]
    g1, g2, diag = _snf_2x2_sl2(x0)
    a, b = diag[0][0], diag[1][1]
    t = (Fraction(m0) - m) / p
    if t.denominator != 1:
        raise ConsistencyError("norm difference is not divisible by p")
    x_new = [[a, 1], [int(t), b]]
    g1_inv = [[int(v) for v in row] for row in invert_rational(g1)]
    x_back = mat_mul(mat_mul(g1_inv, x_new), g2)
    lam = lam0[:nd] + [x_back[0][0], x_back[0][1], x_back[1][0], x_back[1][1]]
    if lat.q_value(lam) != m:
        raise ConsistencyError("constructed vector has the wrong norm")
    pair = [int(x) for x in lat.pairings(lam)]
    if gcd(*pair) != 1:
        raise ConsistencyError("constructed vector is not primitive in the dual")
    if all(x % p == 0 for x in pair):
        raise ConsistencyError("constructed vector is divisible by p in the dual")
    return lam
