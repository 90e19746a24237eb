"""Dimensions of spaces of vector-valued modular forms, by exact trace sums.

For weight k > 2 with 2k = sig (mod 4) the dimension of the holomorphic space
is   d + d*k/12 - alpha(U) - alpha(V^{-1}) - alpha(T|W)
where d is the number of {x, -x} orbits, U = e(k/4-turn) S|W is an involution,
V = e(k/6-turn) (ST)|W has order three, and alpha sums the eigenvalue
exponents in [0, 1). All traces are O(|A|) Gauss sums evaluated exactly; no
matrix is materialized. The cusp subspace drops one dimension per isotropic
orbit.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import cyclo, fqm
from .cyclo import e_frac
from .errors import ConsistencyError, PreconditionError


@dataclass(frozen=True)
class DimensionReport:
    d: int
    alpha_T: Fraction
    mult_S: tuple          # multiplicities of (+1, -1) for the normalized S
    mult_ST: tuple         # multiplicities of (1, e(1/3), e(2/3)) for the normalized ST
    dim_M: int
    dim_S: int
    iso_orbit_count: int

    def lines(self):
        yield "d: %d" % self.d
        yield "alpha_T: %s" % self.alpha_T
        yield "mult_S: +1:%d -1:%d" % self.mult_S
        yield "mult_ST: 1:%d w:%d w2:%d" % self.mult_ST
        yield "iso_orbits: %d" % self.iso_orbit_count
        yield "dim_M: %d" % self.dim_M
        yield "dim_S: %d" % self.dim_S


def _orbit_data(module):
    """(d, alpha_T, isotropic orbit count) over the {x, -x} orbits."""
    qs = [x.q() for x in fqm.orbit_representatives(module)]
    return len(qs), sum(qs, Fraction(0)), qs.count(0)


def _integer(value, what):
    if isinstance(value, cyclo.CyclotomicNumber):
        value = value.rational_value()
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
    c8 = e_frac(Fraction(-module.signature(), 8))
    inv_sqrt = cyclo.sqrt_card(module) * Fraction(1, order)

    def half_trace(c_plain, c_flipped):
        # trace of rho(g) restricted to the symmetrized subspace, as
        # (tr rho(g) + tr rho(g)P)/2 with P the negation permutation
        t1 = c8 * cyclo.gauss_sum(module, c_plain) * inv_sqrt
        t2 = c8 * cyclo.gauss_sum(module, c_flipped) * inv_sqrt
        return (t1 + t2) * Fraction(1, 2)

    # S: diagonal entries e(-(x,x)) = e(-2Q); with negation e(+2Q)
    tr_s = half_trace(-2, 2)
    tr_u = e_frac(k / 4) * tr_s
    t_int = _integer(tr_u, "trace of the normalized S matrix")
    m_plus = _integer(Fraction(d + t_int, 2), "multiplicity of +1 for S")
    m_minus = _integer(Fraction(d - t_int, 2), "multiplicity of -1 for S")
    if m_plus < 0 or m_minus < 0:
        raise ConsistencyError("negative eigenvalue multiplicity for S")
    alpha_s = Fraction(m_minus, 2)

    # ST: diagonal entries e(Q - 2Q) = e(-Q); with negation e(3Q)
    tr_st = half_trace(-1, 3)
    tr_v = e_frac(k / 6) * tr_st
    tr_v2 = tr_v.conjugate()
    w = e_frac(Fraction(1, 3))
    mult = []
    for j in range(3):
        val = (Fraction(d) + w ** (-j) * tr_v + w ** (-2 * j) * tr_v2) * Fraction(1, 3)
        mj = _integer(val, "multiplicity %d for ST" % j)
        if mj < 0:
            raise ConsistencyError("negative eigenvalue multiplicity for ST")
        mult.append(mj)
    m0, m1, m2 = mult
    if m0 + m1 + m2 != d or m_plus + m_minus != d:
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


def table_row_module(n):
    """Discriminant form of the signature (3,2) lattice with hyperbolic block n.

    The definite block is Z with Q(x) = x^2 (Gram matrix [[2]]); the rescaled
    and unimodular hyperbolic planes contribute (Z/n)^2 and nothing.
    """
    return fqm.direct_sum(fqm.fqm_from_gram([[2]]), fqm.hyperbolic_module(n))


def picard_rank(n):
    """Rank of the special-divisor Picard subgroup for the level-n row."""
    return 1 + dim_S(table_row_module(n), Fraction(5, 2))


def picard_rank_table(n_values):
    """Rows (n, rank) for the given block sizes."""
    return [(n, picard_rank(n)) for n in n_values]
