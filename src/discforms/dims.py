"""Dimensions of spaces of vector-valued modular forms, by exact trace sums.

For weight k > 2 with 2k = sig (mod 4) the dimension of the holomorphic space
is   d + d*k/12 - alpha(U) - alpha(V^{-1}) - alpha(T|W)
where d is the number of {x, -x} orbits, U = e(k/4-turn) S|W is an involution,
V = e(k/6-turn) (ST)|W has order three, and alpha sums the eigenvalue
exponents in [0, 1). The cusp subspace drops one dimension per isotropic
orbit.

Everything is read from three integer moments of A and of its 2-torsion A[2]
(fqm.q_moments, fqm.two_torsion_q_moments): the order, the sum of N*Q(x) over
N*Q(x) in [0, N) at the level N, and the count of Q(x) = 0, which give d,
alpha(T) and the isotropic orbit count; and the traces of U and V through the
signature and the Gauss sums G(c) for c in {1, -1, 2, -2, 3} (cyclo.gauss_sum,
kept on the module). All of these are read from the module's structure kind
(see fqm): a direct sum, of the kind _Sum, reads them from its summands, and
H(n), of the kind _Hyperbolic, has closed forms, so a Picard table row
<1/4> + H(n) shifts the divisor sums of H(n) by the two values of <1/4>, reads
the at most 8 elements of A[2], adds signatures and multiplies Gauss sums, with
no histogram, no walk over its 2n^2 elements and no Milgram pass; the <1/4>
block is built once, with its Gauss sums. Any other module, of the kind _Walk,
reads its moments from its histogram, one walk over its elements. A trace
times 2|A| has integer coefficients, and the roots e(k/4 - sig/4),
e(k/6 - sig/4) are built from the integers 2k and sig, so each trace or
multiplicity is an integer num/den taken after one exact rational extraction.
Each trace is one product of a scale e(r - sig/4) G(1) with a sum of two Gauss
sums. The ST trace lies in Q(e(1/3)), so its three multiplicities, which read
x + conj(x) with x = e(-j/3) tr V, come from its canonical form with no further
cyclotomic product. No element and no
matrix is materialized.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache

from . import cyclo, fqm
from ._intmat import integer, rational, shape
from .cyclo import root_of_unity
from .errors import ConsistencyError, PreconditionError


# mult_S: multiplicities of (+1, -1) for the normalized S
# mult_ST: multiplicities of (1, e(1/3), e(2/3)) for the normalized ST
class DimensionReport(namedtuple("DimensionReport",
                                 "d alpha_T mult_S mult_ST dim_M dim_S iso_orbit_count")):
    __slots__ = ()

    def lines(self):
        yield "d: %d" % self.d
        yield "alpha_T: %s" % self.alpha_T
        yield "mult_S: +1:%d -1:%d" % self.mult_S
        yield "mult_ST: 1:%d w:%d w2:%d" % self.mult_ST
        yield "iso_orbits: %d" % self.iso_orbit_count
        yield "dim_M: %d" % self.dim_M
        yield "dim_S: %d" % self.dim_S


def _orbit_data(module):
    """(d, alpha_T, isotropic orbit count) over the {x, -x} orbits.

    An orbit has two elements unless it lies in A[2], so each orbit sum is half
    the sum over A plus the sum over A[2]; Q values are k/N, and each side
    gives its order, the sum of its k and its count of k = 0.
    """
    order, total, zeros = module.q_moments()
    order2, total2, zeros2 = fqm.two_torsion_q_moments(module)
    return ((order + order2) // 2, Fraction(total + total2, 2 * module.level()),
            (zeros + zeros2) // 2)


def _integer(num, den, what):
    """num/den as an int, for ints num and den >= 1; refuses a value that is not an integer."""
    if num % den:
        raise ConsistencyError("%s is not an integer: %s" % (what, Fraction(num, den)))
    return num // den


def _st_values(tr_v, base):
    """(num, den) of base + x + conj(x) with x = e(-j/3) tr_v, for j = 0, 1, 2 in turn.

    tr_v is 2|A| tr(ST) = 2|A| (m0 + m1 w + m2 w^2), w = e(1/3), so it lies in
    Q(w): its canonical form is (c0 + c1 w^s)/den, with w^s the one of w, w^2
    in the basis, and 2 Re(w^i) is 2 for i = 0 mod 3 and -1 otherwise. Any
    other value takes the cyclotomic route, whose rational extraction refuses it.
    """
    r = tr_v.reduce()
    if any(3 * e % r.mod for e in r.coeffs):
        for j in range(3):
            x = root_of_unity(-j, 3) * tr_v
            yield (base + x + x.conjugate()).rational_parts()
        return
    c0, s, c1 = r.coeffs.get(0, 0), 0, 0
    for e, c in r.coeffs.items():
        if e:
            s, c1 = 3 * e // r.mod, c
    for j in range(3):
        yield base * r.den + c0 * (2 if j == 0 else -1) + c1 * (2 if j == s else -1), r.den


def dim_M(module, k):
    """Dimension report for the holomorphic space of weight k, k > 2."""
    k = rational(k, "weight")
    if k <= 2:
        raise PreconditionError("the trace formula is implemented for weights k > 2 only")
    fqm.check_weight_parity(module, k)
    two_k = 2 * k.numerator // k.denominator

    d, alpha_t, iso = _orbit_data(module)
    order = module.order()
    sig = module.signature()
    g1 = cyclo.gauss_sum(module, 1)

    def trace_times_2a(root, c_plain, c_flipped):
        # 2|A| * e(turn) * (tr rho(g) + tr rho(g)P)/2, with P the negation
        # permutation and tr rho(g) = e(-sig/8) G(c) / sqrt|A|; since
        # sqrt|A| = e(-sig/8) G(1), the scale is root = e(turn - sig/4) times
        # G(1). The value has integer coefficients, so the division comes after
        # the rational value is extracted
        return (root * g1) * (cyclo.gauss_sum(module, c_plain)
                              + cyclo.gauss_sum(module, c_flipped))

    # S: diagonal entries e(-(x,x)) = e(-2Q); with negation e(+2Q); the turn is k/4
    num, den = trace_times_2a(root_of_unity(two_k - 2 * sig, 8), -2, 2).rational_parts()
    t_int = _integer(num, 2 * order * den, "trace of the normalized S matrix")
    m_plus = _integer(d + t_int, 2, "multiplicity of +1 for S")
    m_minus = _integer(d - t_int, 2, "multiplicity of -1 for S")
    if m_plus < 0 or m_minus < 0:
        raise ConsistencyError("negative eigenvalue multiplicity for S")

    # ST: diagonal entries e(Q - 2Q) = e(-Q); with negation e(3Q); the turn is k/6
    tr_v = trace_times_2a(root_of_unity(two_k - 3 * sig, 12), -1, 3)
    mult = []
    for j, (num, den) in enumerate(_st_values(tr_v, 2 * order * d)):
        # 2|A| d + x + conj(x), x = e(-j/3) tr_v, sums e(-j/3) tr_v and e(-2j/3) tr_v^2 = conj(x)
        mj = _integer(num, 6 * order * den, "multiplicity %d for ST" % j)
        if mj < 0:
            raise ConsistencyError("negative eigenvalue multiplicity for ST")
        mult.append(mj)
    m0, m1, m2 = mult
    if m0 + m1 + m2 != d:
        raise ConsistencyError("eigenvalue multiplicities do not sum to d")

    # d + d*k/12 - alpha(S) - alpha(ST^-1) - alpha_T over 48q, alpha_T = p/q: alpha(S) is
    # m_minus/2, and eigenvalue e(1/3) of ST contributes 2/3 to the inverse and vice versa
    p, q = alpha_t.numerator, alpha_t.denominator
    dim_m = _integer(q * (2 * d * (24 + two_k) - 24 * m_minus - 16 * (2 * m1 + m2)) - 48 * p,
                     48 * q, "dimension of the holomorphic space")
    if dim_m < 0:
        raise ConsistencyError("negative dimension")
    dim_s = dim_m - iso
    if dim_s < 0:
        raise ConsistencyError("cusp dimension is negative")
    return DimensionReport(d=d, alpha_T=alpha_t, mult_S=(m_plus, m_minus),
                           mult_ST=(m0, m1, m2), dim_M=dim_m, dim_S=dim_s,
                           iso_orbit_count=iso)


def dim_S(module, k):
    """Dimension of the cusp subspace in weight k."""
    return dim_M(module, k).dim_S


@cache
def _definite_block():
    """<1/4>, the discriminant form of Z with Q(x) = x^2 (Gram matrix [[2]]), built once."""
    return fqm.fqm_from_gram([[2]])


def table_row_module(n):
    """Discriminant form of the signature (3,2) lattice with hyperbolic block n.

    The definite block is Z with Q(x) = x^2 (Gram matrix [[2]]); the rescaled
    and unimodular hyperbolic planes contribute (Z/n)^2 and nothing. The row
    is the direct sum <1/4> + H(n), of the kind fqm._Sum, so its histograms and
    Gauss sums are read from those of the two blocks.
    """
    return fqm.direct_sum(_definite_block(), fqm.hyperbolic_module(n))


def check_table(nmax):
    """Refuse the table to row nmax unless nmax >= 1 and every row is within fqm's bounds.

    Row n has order 2n^2 and level lcm(4, n), so row nmax has the largest order
    and the largest odd row, of level 4n, the largest level. Building those
    two rows runs fqm's bound checks for all of them.
    """
    nmax = integer(nmax, "row numbers", 1)
    table_row_module(nmax)
    table_row_module(nmax - 1 + nmax % 2)


def picard_rank(n):
    """Rank of the special-divisor Picard subgroup for the level-n row."""
    return 1 + dim_S(table_row_module(n), Fraction(5, 2))


def picard_rank_table(n_values):
    """Rows (n, rank) for the given block sizes."""
    n_values = shape(n_values, "row numbers", lambda n: integer(n, "row numbers", 1), None)
    return [(n, picard_rank(n)) for n in n_values]
