"""Shared generators and reference oracles for randomized exact tests. Everything is seeded."""

from fractions import Fraction
from math import lcm

from discforms import fqm
from discforms.cyclo import CyclotomicNumber
from discforms.qseries import VectorValuedQSeries
from discforms.weil import WeilMatrix


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


def dense_matmul_reference(a, b):
    """a @ b for WeilMatrix factors by the plain dense triple loop over exponent pairs.

    The slow exact product that the structured kernels of WeilMatrix.__matmul__
    are checked against.
    """
    mod = lcm(a.mod, b.mod)
    a = WeilMatrix(a.module, a.scale, a.mat, mod)
    b = WeilMatrix(b.module, b.scale, b.mat, mod)
    n = a.size
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
    return WeilMatrix(a.module, a.scale * b.scale, out, mod)
