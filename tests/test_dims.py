import cmath
import random
import re
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest

from discforms import cyclo, dims, fqm
from discforms.errors import ConsistencyError, PreconditionError
from helpers import plus_subspace_reference, random_module


def test_trivial_module_weight_12():
    rep = dims.dim_M(fqm.trivial_module(), 12)
    assert rep.dim_M == 2
    assert rep.dim_S == 1
    assert rep.d == 1 and rep.iso_orbit_count == 1


def test_kohnen_plus_space_dimensions():
    # disc of [[2]] at weight k+1/2 matches level-one forms of weight 2k
    a = fqm.fqm_from_gram([[2]])
    known = {F(5, 2): (1, 0), F(9, 2): (1, 0), F(13, 2): (2, 1),
             F(17, 2): (2, 1), F(21, 2): (2, 1), F(25, 2): (3, 2)}
    for k, (m, s) in known.items():
        rep = dims.dim_M(a, k)
        assert (rep.dim_M, rep.dim_S) == (m, s), k


def _level_one_dim(k):
    """dim M_k(SL2(Z)) for even k >= 4."""
    return k // 12 + (k % 12 != 2)


def test_jacobi_forms_of_index_m_match_the_eichler_zagier_count():
    # J_{k,m} is M_{k-1/2} for the negated discriminant form of [[2m]], and
    # Eichler-Zagier count it as sum_{j=0}^{m} (dim M_{k+2j} - ceil(j^2/4m))
    for m in range(1, 61):
        a = fqm.negate(fqm.fqm_from_gram([[2 * m]]))
        for k in range(4, 23, 2):
            want = sum(_level_one_dim(k + 2 * j) - -(-j * j // (4 * m)) for j in range(m + 1))
            assert dims.dim_M(a, k - F(1, 2)).dim_M == want, (m, k)


def test_table_rows_from_spec():
    assert dims.dim_S(dims.table_row_module(1), F(5, 2)) == 0
    assert dims.dim_S(dims.table_row_module(5), F(5, 2)) == 2
    assert dims.dim_S(dims.table_row_module(13), F(5, 2)) == 18


def test_picard_rank_table_segment():
    assert dims.picard_rank_table(range(1, 5)) == [(1, 1), (2, 1), (3, 1), (4, 1)]
    assert [r for _n, r in dims.picard_rank_table((9, 10, 11, 12))] == [7, 9, 11, 7]


def test_weight_guards():
    a = fqm.trivial_module()
    with pytest.raises(PreconditionError):
        dims.dim_M(a, 2)
    with pytest.raises(PreconditionError):
        dims.dim_M(a, F(3, 2))
    with pytest.raises(PreconditionError):
        dims.dim_M(fqm.fqm_from_gram([[2]]), 4)  # parity violation


def _alpha_numeric(mat):
    eigs = np.linalg.eigvals(mat)
    nus = (np.angle(eigs) / (2 * np.pi)) % 1.0
    nus[nus > 1 - 1e-9] -= 1.0
    nus[np.abs(nus) < 1e-9] = 0.0
    return float(nus.sum())


def _numeric_report(module, k):
    reps, w, tm, sm, stm = plus_subspace_reference(module, k)
    d = len(reps)
    kf = float(k)
    s_mat = np.array(sm.to_complex())
    st_mat = np.array(stm.to_complex())
    t_mat = np.array(tm.to_complex())
    u = cmath.exp(1j * cmath.pi * kf / 2) * s_mat
    v = cmath.exp(1j * cmath.pi * kf / 3) * st_mat
    assert np.allclose(u @ u, np.eye(d), atol=1e-8)
    assert np.allclose(v @ v @ v, np.eye(d), atol=1e-8)
    total = d + d * kf / 12 - _alpha_numeric(u) - _alpha_numeric(np.linalg.inv(v)) \
        - _alpha_numeric(t_mat)
    mult_s_minus = round((d - np.trace(u).real) / 2)
    ev_v = np.linalg.eigvals(v)
    m1 = int(np.sum(np.abs(ev_v - cmath.exp(2j * cmath.pi / 3)) < 1e-6))
    m2 = int(np.sum(np.abs(ev_v - cmath.exp(4j * cmath.pi / 3)) < 1e-6))
    return total, mult_s_minus, (m1, m2)


def test_trace_cross_check_against_eigendecomposition():
    # exact Gauss-sum traces against double-precision spectra of explicit matrices
    cases = [(dims.table_row_module(3), F(5, 2)),
             (fqm.fqm_from_gram([[2]]), F(13, 2)),
             (fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(3)), F(5, 2))]
    rng = random.Random(1234)
    while len(cases) < 8:
        a = random_module(rng, max_order=40)
        cases.append((a, F(a.signature() + 8, 2)))
    for a, k in cases:
        rep = dims.dim_M(a, k)
        numeric, m_minus, (m1, m2) = _numeric_report(a, k)
        assert abs(numeric - rep.dim_M) < 1e-6, (a.orders, k)
        assert m_minus == rep.mult_S[1]
        assert (m1, m2) == rep.mult_ST[1:]


def test_monotonic_sanity():
    a = dims.table_row_module(6)
    rep = dims.dim_M(a, F(5, 2))
    assert rep.dim_S <= rep.dim_M
    # twelve steps up in weight: same phases, dimension grows by exactly d
    rep2 = dims.dim_M(a, F(5, 2) + 12)
    assert rep2.dim_M == rep.dim_M + rep.d


def test_report_lines_format():
    rep = dims.dim_M(dims.table_row_module(2), F(5, 2))
    lines = list(rep.lines())
    assert lines[0] == "d: %d" % rep.d
    assert lines[-1] == "dim_S: %d" % rep.dim_S


def test_multiplicities_sum_to_d():
    for n in (2, 5, 9):
        rep = dims.dim_M(dims.table_row_module(n), F(5, 2))
        assert sum(rep.mult_S) == rep.d
        assert sum(rep.mult_ST) == rep.d


def _slow_st_values(tr_v, base):
    out = []
    for j in range(3):
        x = cyclo.e_frac(F(-j, 3)) * tr_v
        out.append((base + x + x.conjugate()).rational_value())
    return out


def test_st_values_in_q_omega_match_the_cyclotomic_route():
    # a + b w^s at moduli with and without the prime 3, and unreduced presentations of it
    rng = random.Random(33)
    w = cyclo.e_frac(F(1, 3))
    for _ in range(200):
        a, b, den = rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(1, 12)
        mod = rng.choice((1, 2, 4, 8, 3, 6, 12, 24, 84, 168, 360))
        t = (cyclo.CyclotomicNumber.from_rational(a) + w ** rng.randint(1, 2) * b) * F(1, den)
        if mod % 3:
            t = cyclo.CyclotomicNumber.from_rational(F(a, den))
        t = t._promoted(lcm(t.mod, mod))
        base = rng.randint(0, 1000)
        got = [F(num, d) for num, d in dims._st_values(t, base)]
        assert got == _slow_st_values(t, base), (t, base)


def test_st_values_outside_q_omega_are_refused():
    for t in (cyclo.e_frac(F(1, 8)), cyclo.e_frac(F(1, 12)) + 1, cyclo.e_frac(F(1, 5)) * 7):
        with pytest.raises(ConsistencyError, match="^value is not rational: "):
            list(dims._st_values(t, 10))


# inconsistent orbit data for row 5 (d = 26, alpha_T = 37/4, 5 isotropic orbits), and the check
# of dims.dim_M that refuses it
CORRUPT_ORBIT_DATA = {
    (27, F(37, 4), 5): "multiplicity of +1 for S is not an integer: 27/2",
    (28, F(37, 4), 5): "multiplicity 0 for ST is not an integer: 29/3",
    (-4, F(37, 4), 5): "negative eigenvalue multiplicity for S",
    (26, F(37, 4) + F(1, 3), 5): "dimension of the holomorphic space is not an integer: 20/3",
    (26, F(37, 4) + 100, 5): "negative dimension",
    (26, F(37, 4), 1005): "cusp dimension is negative",
}


def test_inconsistent_orbit_data_and_gauss_sums_are_refused(monkeypatch):
    a = dims.table_row_module(5)
    assert dims._orbit_data(a) == (26, F(37, 4), 5)
    for data, message in CORRUPT_ORBIT_DATA.items():
        with monkeypatch.context() as m:
            m.setattr(dims, "_orbit_data", lambda module, data=data: data)
            with pytest.raises(ConsistencyError, match="^%s$" % re.escape(message)):
                dims.dim_M(a, F(5, 2))
    # a kept Gauss sum turned by e(1/8) takes the ST trace out of Q(e(1/3)); G(2) is 0 on a
    # table row, and e(1/8) in its place takes the S trace out of Q
    eighth = cyclo.e_frac(F(1, 8))
    for c, message in ((3, "value is not rational: 9800 + 49 * z168^28 + -49 * z168^35 + "),
                       (2, "value is not rational: -7 * z56^14 + 7 * z56^28")):
        b = dims.table_row_module(7)
        b._gauss[c] = cyclo.gauss_sum(b, c) * eighth if c == 3 else eighth
        with pytest.raises(ConsistencyError, match="^" + re.escape(message)):
            dims.dim_M(b, F(5, 2))
