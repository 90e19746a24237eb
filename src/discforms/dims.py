"""Dimensions of spaces of vector-valued modular forms, by exact trace sums.

For weight k > 2 with 2k = sig (mod 4) the dimension of the holomorphic space
is   d + d*k/12 - alpha(U) - alpha(V^{-1}) - alpha(T|W)
where d is the number of {x, -x} orbits, U = e(k/4-turn) S|W is an involution,
V = e(k/6-turn) (ST)|W has order three, and alpha sums the eigenvalue
exponents in [0, 1). The cusp subspace drops one dimension per isotropic
orbit.

Everything is read from the integer Q-value histograms of A and of its
2-torsion A[2] (fqm.q_histogram, fqm.two_torsion_q_histogram): d, alpha(T) and
the isotropic orbit count directly, and the traces of U and V through the
Gauss sums G(c) for c in {1, -1, 2, -2, 3} (cyclo.gauss_sum). A module built by
fqm.direct_sum reads these from its summands, and H(n) has closed forms, so a
Picard table row <1/4> + H(n) convolves a 2-bin histogram with a closed form
and multiplies Gauss sums, with no walk over its 2n^2 elements; any other
module walks its elements once for its histogram. A trace times 2|A| has
integer coefficients, so the exact rational extraction runs on integers and
the division comes after it. No element and no matrix is materialized.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache

from . import cyclo, fqm
from .cyclo import e_frac
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
    the sum over A plus the sum over A[2]; Q values are k/N.
    """
    n, h = module.q_histogram()
    h2 = fqm.two_torsion_q_histogram(module)[1]
    d = (module.order() + sum(h2)) // 2
    alpha_t = Fraction(sum(k * (a + b) for k, (a, b) in enumerate(zip(h, h2))), 2 * n)
    return d, alpha_t, (h[0] + h2[0]) // 2


def _integer(value, what):
    value = Fraction(value)
    if value.denominator != 1:
        raise ConsistencyError("%s is not an integer: %s" % (what, value))
    return int(value)


def dim_M(module, k):
    """Dimension report for the holomorphic space of weight k, k > 2."""
    k = Fraction(k)
    if k <= 2:
        raise PreconditionError("the trace formula is implemented for weights k > 2 only")
    fqm.check_weight_parity(module, k)

    d, alpha_t, iso = _orbit_data(module)
    order = module.order()
    # 2|A| times a trace on the symmetrized subspace has integer coefficients;
    # divide only after the rational value is extracted
    scale = e_frac(Fraction(-module.signature(), 8)) * cyclo.sqrt_card(module)

    def trace_times_2a(c_plain, c_flipped):
        # 2|A| * (tr rho(g) + tr rho(g)P)/2 with P the negation permutation,
        # where tr rho(g) = e(-sig/8) G(c) / sqrt|A|
        return scale * (cyclo.gauss_sum(module, c_plain) + cyclo.gauss_sum(module, c_flipped))

    # S: diagonal entries e(-(x,x)) = e(-2Q); with negation e(+2Q)
    tr_u = e_frac(k / 4) * trace_times_2a(-2, 2)
    t_int = _integer(tr_u.rational_value() / (2 * order), "trace of the normalized S matrix")
    m_plus = _integer(Fraction(d + t_int, 2), "multiplicity of +1 for S")
    m_minus = _integer(Fraction(d - t_int, 2), "multiplicity of -1 for S")
    if m_plus < 0 or m_minus < 0:
        raise ConsistencyError("negative eigenvalue multiplicity for S")
    alpha_s = Fraction(m_minus, 2)

    # ST: diagonal entries e(Q - 2Q) = e(-Q); with negation e(3Q)
    tr_v = e_frac(k / 6) * trace_times_2a(-1, 3)
    tr_v2 = tr_v.conjugate()
    mult = []
    for j in range(3):
        val = (2 * order * d + e_frac(Fraction(-j, 3)) * tr_v
               + e_frac(Fraction(-2 * j, 3)) * tr_v2)
        mj = _integer(val.rational_value() / (6 * order), "multiplicity %d for ST" % j)
        if mj < 0:
            raise ConsistencyError("negative eigenvalue multiplicity for ST")
        mult.append(mj)
    m0, m1, m2 = mult
    if m0 + m1 + m2 != d:
        raise ConsistencyError("eigenvalue multiplicities do not sum to d")
    # alpha of the inverse: eigenvalue e(1/3) contributes 2/3 and vice versa
    alpha_st = Fraction(2 * m1 + m2, 3)

    total = d + Fraction(d) * k / 12 - alpha_s - alpha_st - alpha_t
    dim_m = _integer(total, "dimension of the holomorphic space")
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
    is the direct sum <1/4> + H(n), so its histograms and Gauss sums are read
    from those of the two blocks (see fqm.direct_sum).
    """
    return fqm.direct_sum(_definite_block(), fqm.hyperbolic_module(n))


def picard_rank(n):
    """Rank of the special-divisor Picard subgroup for the level-n row."""
    return 1 + dim_S(table_row_module(n), Fraction(5, 2))


def picard_rank_table(n_values):
    """Rows (n, rank) for the given block sizes."""
    return [(n, picard_rank(n)) for n in n_values]
