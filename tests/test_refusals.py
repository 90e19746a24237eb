"""Every documented refusal of the public API, each matched by its message.

Each case builds its own small input and names the PreconditionError it must
raise; the refusals that no other test reaches are collected here.
"""

import re
from fractions import Fraction as F

import pytest

from discforms import cyclo, dims, fqm, lattice, lifts, qseries, weil
from discforms.errors import PreconditionError


def _a1():
    return fqm.cyclic_module(2, F(1, 4))


def _h(n):
    return fqm.hyperbolic_module(n)


def _line(a, coords):
    return fqm.Subgroup.from_generators(a, [a.element(coords)])


def _series(a, weight=2, truncation=1, coeffs=()):
    """A series on a with c(m, mu) = v for the (coords, m, v) in coeffs."""
    f = qseries.VectorValuedQSeries(a, weight, truncation)
    for coords, m, v in coeffs:
        f.set(a.element(coords), m, v)
    return f


def _scalar(level, coeffs, weight=2, truncation=3):
    f = lifts.ScalarQSeries(weight, level, truncation)
    for l, v in coeffs:
        f.set(l, v)
    return f


def _proj_outside_perp():
    a = _h(2)
    _b, proj, _sect = fqm.subquotient(a, _line(a, (1, 0)))
    return proj(a.element((0, 1)))


def _same_orders_other_form():
    """H(4), <1/8> + <7/8> on the same orders (4, 4), and <(2, 0)> <= H(4).

    (2, 0) is isotropic in H(4) but has Q = 1/2 in the other module.
    """
    a = _h(4)
    b = fqm.direct_sum(fqm.cyclic_module(4, F(1, 8)), fqm.cyclic_module(4, F(7, 8)))
    return a, b, _line(a, (2, 0))


def _foreign(coords):
    """An element of <1/8> + <7/8>, refused by H(4) although the orders agree."""
    return _same_orders_other_form()[1].element(coords)


def _eighths(q1, q2):
    """<q1> + <q2> on cyclic groups of order 4, q1 and q2 in (1/8)Z."""
    return fqm.direct_sum(fqm.cyclic_module(4, q1), fqm.cyclic_module(4, q2))


def _swap_on(a, b):
    """The automorphism of a that swaps its two generators, applied to b."""
    return weil.aut_matrix(b, fqm.Automorphism(a, [[0, 1], [1, 0]]))


def _signature_four():
    c = fqm.cyclic_module(3, F(1, 3))
    return fqm.direct_sum(fqm.direct_sum(c, c), _h(3))


def _lift(module, k=2, p=3, n=2):
    s = lifts.ScalarQSeries(k, p, 3)
    return lifts.vector_lift_closed(s, s, module, k, p, n)


# case -> (thunk that must raise, message)
REFUSALS = {
    # fqm
    "aut_not_endomorphism": (
        lambda: fqm.Automorphism(fqm.direct_sum(_a1(), fqm.cyclic_module(4, F(1, 8))),
                                 [[0, 1], [1, 0]]),
        "matrix does not define an endomorphism"),
    "aut_moves_q": (lambda: fqm.Automorphism(fqm.cyclic_module(5, F(1, 5)), [[2]]),
                    "map does not preserve the quadratic form"),
    "aut_moves_pairing": (lambda: fqm.Automorphism(_h(3), [[1, 0], [0, 2]]),
                          "map does not preserve the pairing"),
    # a non-integral entry is refused, not truncated to int
    "aut_entry_not_integral": (lambda: fqm.Automorphism(_h(6), [[1.5, 0], [0, 1]]),
                               "matrix entries must be integers"),
    # a matrix that is not rank x rank is refused before any entry is read as a map
    "aut_short_matrix": (lambda: fqm.Automorphism(_h(6), [[1, 0]]),
                         "matrix must be 2 x 2, the rank of the module"),
    "aut_ragged_matrix": (lambda: fqm.Automorphism(_h(6), [[1], [0, 1]]),
                          "matrix must be 2 x 2, the rank of the module"),
    "aut_wide_matrix": (lambda: fqm.Automorphism(_h(6), [[1, 0, 0], [0, 1, 0]]),
                        "matrix must be 2 x 2, the rank of the module"),
    "aut_entry_text": (lambda: fqm.Automorphism(_h(6), [["x", 0], [0, 1]]),
                       "matrix entries must be integers"),
    # a bare int is not a matrix; iterating it raised TypeError
    "aut_bare_int": (lambda: fqm.Automorphism(_h(3), 5),
                     "matrix must be 2 x 2, the rank of the module"),
    "aut_bare_int_row": (lambda: fqm.Automorphism(_h(3), [[1, 0], 5]),
                         "matrix must be 2 x 2, the rank of the module"),
    "elements_of_two_modules": (lambda: _h(2).zero() + _h(3).zero(),
                                "elements belong to different modules"),
    "subgroups_of_two_modules": (lambda: _line(_h(2), (1, 0)) + _line(_h(3), (1, 0)),
                                 "subgroups of different modules"),
    "subquotient_other_module": (lambda: fqm.subquotient(*_same_orders_other_form()[1:]),
                                 "subgroup does not belong to the module"),
    "complement_other_module": (
        lambda: fqm.orthogonal_complement(*_same_orders_other_form()[1:]),
        "subgroup does not belong to the module"),
    "element_length": (lambda: _h(2).element((0,)), "coordinate length mismatch"),
    # every row length is checked before the symmetry check reads across rows
    "bilinear_short_last_row": (lambda: fqm.FiniteQuadraticModule((1, 1), (0, 0), ((0, 0), ())),
                                "bilinear matrix is not square"),
    "to_coords_outside_dual": (lambda: fqm.fqm_from_gram_with_maps([[2]])[1]([F(1, 3)]),
                               "vector is not in the dual lattice"),
    "isotropic_order_not_dividing": (lambda: fqm.isotropic_subgroups(_h(2), 3),
                                     "order must divide the module order"),
    "proj_outside_perp": (_proj_outside_perp, "element is not in the orthogonal complement"),
    "content_reference": (lambda: fqm.content(_a1(), _a1().element((1,)), _a1().zero()),
                          "reference element must be isotropic"),
    "cyclic_subgroup_reference": (
        lambda: fqm.cyclic_subgroup_id(_a1(), _a1().element((1,)), 2),
        "reference element must be isotropic"),
    # an automorphism, or an element, of another module is refused before it is read
    "aut_call_other_module": (
        lambda: fqm.phi_r(_h(6), 5)(_eighths(F(1, 8), F(1, 8)).element((1, 0))),
        "element does not belong to the module"),
    "content_other_module": (
        lambda: fqm.content(_h(6), _h(6).element((0, 1)), _h(4).element((1, 0))),
        "element does not belong to the module"),
    "content_reference_other_module": (
        lambda: fqm.content(_h(6), _h(4).element((0, 1)), _h(6).element((1, 0))),
        "reference element does not belong to the module"),
    "cyclic_subgroup_other_module": (
        lambda: fqm.cyclic_subgroup_id(_h(6), _h(4).element((0, 1)), 2),
        "reference element does not belong to the module"),
    # an element of another module on the same orders is refused before its coordinates are read
    "subgroup_elements_other_module": (
        lambda: fqm.Subgroup(_h(4), [_foreign((0, 0)), _foreign((2, 0))]),
        "element does not belong to the module"),
    "subgroup_generators_other_module": (
        lambda: fqm.Subgroup.from_generators(_h(4), [_foreign((2, 0))]),
        "element does not belong to the module"),
    "contains_other_module": (lambda: _same_orders_other_form()[2].contains(_foreign((2, 0))),
                              "element does not belong to the module"),
    # non-positive orders are refused before they divide anything
    "cyclic_subgroup_order_zero": (lambda: fqm.cyclic_subgroup_id(_h(6), _h(6).element((0, 1)), 0),
                                   "d must be a positive integer"),
    "cyclic_subgroup_order_negative": (
        lambda: fqm.cyclic_subgroup_id(_h(6), _h(6).element((0, 1)), -2),
        "d must be a positive integer"),
    "isotropic_order_zero": (lambda: fqm.isotropic_subgroups(_h(6), 0),
                             "order must be a positive integer"),
    "isotropic_order_negative": (lambda: fqm.isotropic_subgroups(_h(6), -2),
                                 "order must be a positive integer"),
    "cyclic_subgroup_order_float": (
        lambda: fqm.cyclic_subgroup_id(_h(6), _h(6).element((0, 1)), 2.0),
        "d must be a positive integer"),
    "phi_r_orders": (
        lambda: fqm.phi_r(fqm.direct_sum(_a1(), fqm.cyclic_module(4, F(1, 8))), 1, pair=(0, 1)),
        "selected generators have different orders"),
    "normal_form_foreign": (lambda: fqm.MatrixModelSplit(3).normal_form(_h(3).zero()),
                            "element does not belong to the split module"),
    # order 0 is refused before the pairing 1/n is built
    "hyperbolic_order_zero": (lambda: fqm.hyperbolic_module(0),
                              "generator orders must be positive"),
    "matrix_model_order_zero": (lambda: fqm.matrix_model_module(0),
                                "generator orders must be positive"),
    "picard_rank_zero": (lambda: dims.picard_rank(0), "generator orders must be positive"),
    "lift_module_order_zero": (lambda: lifts.lift_module(0, 2),
                               "generator orders must be positive"),
    # a non-integral order is refused, not truncated to int
    "cyclic_order_not_integral": (lambda: fqm.cyclic_module(2.5, F(1, 4)),
                                  "generator orders must be integers"),
    "hyperbolic_order_not_integral": (lambda: fqm.hyperbolic_module(2.5),
                                      "generator orders must be integers"),
    # cyclo: the multiplier c of a Gauss sum and the phase q of e(q); "x" and 1.5
    # raised TypeError from c % level, and "x" ValueError from Fraction(q)
    "gauss_sum_multiplier_text": (lambda: cyclo.gauss_sum(_h(3), "x"),
                                  "Gauss sum multipliers must be integers"),
    "gauss_sum_multiplier_float": (lambda: cyclo.gauss_sum(_h(3), 1.5),
                                   "Gauss sum multipliers must be integers"),
    "e_frac_text": (lambda: cyclo.e_frac("x"), "phase must be a rational number, not 'x'"),
    # dims: the weight and the table's nmax raised TypeError or ValueError
    "dim_M_weight_none": (lambda: dims.dim_M(_h(3), None),
                          "weight must be a rational number, not None"),
    "dim_M_weight_text": (lambda: dims.dim_M(_h(3), "x"),
                          "weight must be a rational number, not 'x'"),
    "weight_parity_text": (lambda: fqm.check_weight_parity(_h(3), "x"),
                           "weight must be a rational number, not 'x'"),
    "check_table_text": (lambda: dims.check_table("x"), "row numbers must be integers"),
    "check_table_float": (lambda: dims.check_table(2.5), "row numbers must be integers"),
    # lattice
    "coset_representative_foreign": (
        lambda: lattice.EvenLattice([[2]]).coset_representative(_h(2).zero()),
        "class does not belong to this discriminant group"),
    "ell_not_primitive": (lambda: lattice.split_UN(lattice.EvenLattice([[0, 3], [3, 0]]), [0, 2]),
                          "ell must be primitive"),
    "ell_not_isotropic": (lambda: lattice.split_UN(lattice.EvenLattice([[0, 3], [3, 0]]), [1, 1]),
                          "ell must be isotropic"),
    # a non-integral entry of ell is refused, not truncated to int
    "ell_not_integral": (lambda: lattice.split_UN(lattice.EvenLattice([[0, 1], [1, 0]]), [1.5, 0]),
                         "ell entries must be integers"),
    # a bare int is not a vector; iterating it raised TypeError
    "ell_bare_int": (lambda: lattice.split_UN(lattice.EvenLattice([[0, 1], [1, 0]]), 5),
                     "ell must be a list of integers"),
    "k0_ell_bare_int": (lambda: lattice.sublattice_K0(lattice.EvenLattice([[0, 1], [1, 0]]), 5),
                        "ell must be a list of integers"),
    "k0_ell_not_integral": (
        lambda: lattice.sublattice_K0(lattice.EvenLattice([[0, 1], [1, 0]]), [1.5, 0]),
        "ell entries must be integers"),
    "express_outside": (lambda: lattice.express_in_basis([[2, 0], [0, 2]], [1, 0]),
                        "vector does not lie in the sublattice"),
    "express_singular_basis": (lambda: lattice.express_in_basis([[1, 0], [2, 0]], [1, 0]),
                               "matrix is singular"),
    "norm_split_norms": (lambda: lattice.represent_norm_split([], 3, 1, [1, 0, 0, 0]),
                         "norms must lie in pZ"),
    "norm_split_witness": (lambda: lattice.represent_norm_split([], 3, 3, [1, 0, 0, 0]),
                           "witness is divisible by p in the dual"),
    # lifts
    "scalar_past_truncation": (lambda: _scalar(11, [(4, 1)]),
                               "exponent exceeds the truncation bound"),
    "eta_argument": (lambda: lifts.eta_quotient({0: 1}, 3),
                     "eta arguments must be positive integers"),
    "u_p_zero": (lambda: lifts.u_p(lifts.eta_quotient({1: 24}, 3), 0),
                 "p must be a positive integer"),
    "u_p_negative": (lambda: lifts.u_p(lifts.eta_quotient({1: 24}, 3), -2),
                     "p must be a positive integer"),
    # a float p gave float exponents
    "u_p_float": (lambda: lifts.u_p(lifts.eta_quotient({1: 24}, 3), 1.5),
                  "p must be a positive integer"),
    "u_p_fractional": (lambda: lifts.u_p(lifts.eta_quotient({1: 1}, 3), 2),
                       "U_p is implemented for integral exponents"),
    "newform_eps": (lambda: lifts.NewformData(_scalar(11, [(1, 1)]), 2, 2, 11),
                    "eigenvalue must be +1 or -1"),
    "newform_weight": (lambda: lifts.NewformData(_scalar(11, [(1, 1)]), 1, 3, 11),
                       "weight must be a positive even integer"),
    "newform_zero": (lambda: lifts.NewformData(_scalar(11, []), 1, 2, 11),
                     "the zero series is not a newform"),
    "newform_exponents": (lambda: lifts.NewformData(lifts.eta_quotient({1: 1}, 3), 1, 2, 11),
                          "newform expansions have integral exponents"),
    "newform_cusp": (lambda: lifts.NewformData(_scalar(11, [(0, 1), (1, 1)]), 1, 2, 11),
                     "newforms are cusp forms"),
    "newform_normalized": (lambda: lifts.NewformData(_scalar(11, [(2, 1)]), 1, 2, 11),
                           "newforms are normalized at the first coefficient"),
    "newform_recursion": (lambda: lifts.NewformData(_scalar(2, [(1, 1), (2, 5)]), 1, 2, 2),
                          "coefficient recursion fails at index 1"),
    "lift_module_n": (lambda: lifts.lift_module(11, 3), "the construction needs n = 2 mod 8"),
    "lift_n": (lambda: _lift(_h(3), n=3), "the construction needs n = 2 mod 8"),
    "lift_signature": (lambda: _lift(_signature_four()), "module signature must vanish mod 8"),
    "lift_parity": (lambda: _lift(lifts.lift_module(3, 2), k=3),
                    "k + n must be even for a rational rescaling"),
    # qseries
    "add_weights": (lambda: _series(_h(2)) + _series(_h(2), weight=4),
                    "series are not compatible"),
    "reduction_other_module": (lambda: qseries.reduction(*_same_orders_other_form()[1:]),
                               "subgroup does not belong to the module"),
    "up_arrow_module": (lambda: qseries.up_arrow(_series(_h(2)), _h(2), _line(_h(2), (1, 0))),
                        "series does not live on the subquotient module"),
    "pairing_modules": (lambda: qseries.pairing_at(_series(_h(2)), _series(_h(3)), 1),
                        "series on different modules"),
    "prime_union_orders": (
        lambda: qseries.decompose_prime_union(_series(_h(6)), [_line(_h(6), (3, 0))] * 2),
        "subgroup orders must be distinct primes"),
    "prime_union_support": (
        lambda: qseries.decompose_prime_union(_series(_h(6), coeffs=[((0, 1), 1, 1)]),
                                              [_line(_h(6), (3, 0))]),
        "series is not supported on the union of complements"),
    "prime_union_invariance": (
        lambda: qseries.decompose_prime_union(_series(_h(6), coeffs=[((0, 0), 1, 1)]),
                                              [_line(_h(6), (3, 0))]),
        "coset-translation invariance fails for subgroup 0"),
    "oldform_order_one": (lambda: qseries.is_oldform(_series(_h(2)), _h(2).zero()),
                          "reference element must be isotropic of order >= 2"),
    "oldform_reference": (
        lambda: qseries.oldform_decompose(_series(_a1()), _a1().element((1,)), 1),
        "reference element must be isotropic"),
    # an empty series too, where no content is read
    "is_oldform_other_module": (lambda: qseries.is_oldform(_series(_h(6)), _h(4).element((0, 1))),
                                "reference element does not belong to the module"),
    "oldform_other_module": (
        lambda: qseries.oldform_decompose(_series(_h(6), coeffs=[((0, 1), 1, 1)]),
                                          _h(4).element((0, 1)), 1),
        "reference element does not belong to the module"),
    # the subgroups I_d were read along an element of H(2), and the zero series came back
    "moebius_resum_other_module": (
        lambda: qseries.moebius_resum(_series(_h(6), coeffs=[((0, 1), 1, 1)]), _h(2).zero()),
        "reference element does not belong to the module"),
    "oldform_depth_negative": (
        lambda: qseries.oldform_decompose(_series(_h(6)), _h(6).element((0, 1)), -1),
        "depth must be a non-negative integer"),
    "oldform_depth_zero_other_module": (
        lambda: qseries.oldform_decompose(_series(_h(6)), _h(4).element((0, 1)), 0),
        "reference element does not belong to the module"),
    # Q = 1/8 on the foreign element, so at H(4)'s Q = 0 the exponent 0 would pass
    "set_other_module": (
        lambda: qseries.VectorValuedQSeries(_h(4), 3, 6).set(_foreign((1, 0)), 0, 5),
        "element does not belong to the module"),
    # a float was stored as its binary Fraction, a string broke write_series
    "set_float": (lambda: qseries.VectorValuedQSeries(_h(6), 3, 6).set(_h(6).zero(), 1, 0.1),
                  "coefficient must be an int, Fraction or CyclotomicNumber"),
    "set_string": (lambda: qseries.VectorValuedQSeries(_h(6), 3, 6).set(_h(6).zero(), 2, "x"),
                   "coefficient must be an int, Fraction or CyclotomicNumber"),
    # an exponent that is not a rational number is refused, and a decimal
    # exponent past the bound is refused before its integer is built
    "set_exponent_text": (lambda: _series(_h(6)).set(_h(6).zero(), "x", 1),
                          "exponent must be a rational number, not 'x'"),
    "get_exponent_text": (lambda: _series(_h(6)).get(_h(6).zero(), "x"),
                          "exponent must be a rational number, not 'x'"),
    "get_exponent_huge_decimal": (
        lambda: _series(_h(6)).get(_h(6).zero(), "1e999999999"),
        "exponent must be a rational number, not '1e999999999'"),
    "pairing_exponent_text": (lambda: qseries.pairing_at(_series(_h(6)), _series(_h(6)), "x"),
                              "exponent must be a rational number, not 'x'"),
    "get_other_module": (lambda: _series(_h(4)).get(_foreign((1, 0)), 0),
                         "element does not belong to the module"),
    "component_other_module": (lambda: _series(_h(4)).component(_foreign((1, 0))),
                               "element does not belong to the module"),
    "supported_on_other_subgroup": (
        lambda: qseries.is_supported_on(_series(_h(4)), _line(_h(2), (1, 0))),
        "subgroup does not belong to the module"),
    "supported_on_other_elements": (
        lambda: qseries.is_supported_on(_series(_h(4)), [_foreign((0, 0))]),
        "element does not belong to the module"),
    "oldform_support": (
        lambda: qseries.oldform_decompose(_series(_h(6), coeffs=[((0, 1), 1, 1)]),
                                          _h(6).element((1, 0)), 1),
        "support precondition fails at recursion depth 1"),
    "oldform_invariance": (
        lambda: qseries.oldform_decompose(_series(_h(6), coeffs=[((0, 2), 1, 1)]),
                                          _h(6).element((1, 0)), 1),
        "coset-translation invariance fails at depth 1"),
    # weil
    "matmul_modules": (lambda: weil.identity_matrix(_h(2)) @ weil.identity_matrix(_h(3)),
                       "matrices act on different modules"),
    "first_difference_modules": (
        lambda: weil.identity_matrix(_h(2)).first_difference(weil.identity_matrix(_h(3))),
        "matrices act on different modules"),
    "aut_matrix_unchecked": (lambda: weil.aut_matrix(_h(2), [[1, 0], [0, 1]]),
                             "expected a checked automorphism"),
    "aut_matrix_other_module": (lambda: weil.aut_matrix(_h(5), fqm.phi_r(_h(3), 2)),
                                "automorphism does not belong to the module"),
    "aut_matrix_same_orders": (
        lambda: _swap_on(_eighths(F(1, 8), F(1, 8)), _eighths(F(1, 8), F(3, 8))),
        "automorphism does not belong to the module"),
    # a float power or entry gave float phases, which the matrix products refused
    "rho_T_power_not_integral": (lambda: weil.rho_T(_h(6), 1.5), "T powers must be integers"),
    "metaplectic_entry_not_integral": (lambda: weil.MetaplecticElement(((1, 0.5), (0, 1))),
                                       "matrix entries must be integers"),
    "metaplectic_determinant": (lambda: weil.MetaplecticElement(((2, 1), (1, 2))),
                                "matrix must have determinant one"),
    # a matrix that is not 2 x 2 failed to unpack with ValueError, and a float bit
    # failed in `bit & 1` with TypeError; a bit of 2 or 3 was read mod 2
    "metaplectic_wide_row": (lambda: weil.MetaplecticElement(((1, 0, 0), (0, 1))),
                             "matrix must be 2 x 2"),
    "metaplectic_three_rows": (lambda: weil.MetaplecticElement(((1, 0), (0, 1), (1, 1))),
                               "matrix must be 2 x 2"),
    "metaplectic_not_a_matrix": (lambda: weil.MetaplecticElement(None), "matrix must be 2 x 2"),
    "rho_of_short_matrix": (lambda: weil.rho_of(_h(3), [[1, 0]]), "matrix must be 2 x 2"),
    "metaplectic_float_bit": (lambda: weil.MetaplecticElement(((1, 0), (0, 1)), 0.5),
                              "the branch bit must be the int 0 or 1"),
    "metaplectic_bit_two": (lambda: weil.MetaplecticElement(((1, 0), (0, 1)), 2),
                            "the branch bit must be the int 0 or 1"),
    # a float, text or None power raised TypeError from n & 1 or n >= 0
    "metaplectic_power_float": (lambda: weil.gen_T() ** 1.5, "metaplectic powers must be integers"),
    "metaplectic_power_text": (lambda: weil.gen_T() ** "2", "metaplectic powers must be integers"),
    "metaplectic_power_none": (lambda: weil.gen_T() ** None, "metaplectic powers must be integers"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    thunk, message = REFUSALS[case]
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        thunk()


def test_resum_of_a_depth_zero_decomposition_is_the_series():
    a = _h(6)
    e = a.element((1, 0))
    f = _series(a, truncation=2, coeffs=[((0, 1), 1, 3), ((2, 3), 2, F(1, 2))])
    parts = qseries.oldform_decompose(f, e, 0)
    assert list(parts) == [1]
    assert qseries.resum_decomposition(parts, a, e) == f


def test_rho_of_a_plain_matrix():
    a = _h(3)
    assert weil.rho_of(a, ((1, 1), (0, 1))) == weil.rho_T(a)
    assert weil.rho_of(a, ((0, -1), (1, 0))) == weil.rho_S(a)


def test_cached_reduction_refuses_a_subgroup_of_another_module():
    # the cache is keyed by (module, Hermite form); a subgroup with the same form
    # in a module on the same orders must not be answered from it
    a, b, ha = _same_orders_other_form()
    qseries.reduction(a, ha)
    hb = _line(b, (2, 0))
    assert hb.hnf == ha.hnf
    with pytest.raises(PreconditionError, match="^subgroup does not belong to the module$"):
        qseries.reduction(a, hb)
