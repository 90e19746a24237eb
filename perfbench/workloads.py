"""The four workloads: inputs made from a seed, and the jobs.

A workload is built in a fresh interpreter by ``build(name, seed, size)``,
which returns a list of jobs ``(key, fn)``; calling ``fn()`` does the work of
one job and returns its answer. A cli_mix job is instead ``(key, argv)``: the
worker runs it as a ``discforms`` subprocess. run.py checks the answers.
"""

import random
from fractions import Fraction as F
from math import gcd

from discforms import cyclo, dims, fqm, qseries as qs, weil

# Module profiles: blocks ("c", n) cyclic of order n, ("h", n) the rescaled
# hyperbolic plane (Z/n)^2. A profile fixes the isomorphism class, so |A|, the
# level and the cost of a job do not depend on the seed; the seed picks the
# presentation: the generator of each cyclic block, a Gram-derived block where
# one exists, and the order of the summands.
# Three profiles near the median cost and two near the tail percentile occur
# more than once, with presentations of their own, so that job_p50_s and
# job_tail_s each fall among a few jobs of equal cost rather than on one job.
WEIL_SLOTS = (
    (("c", 2),), (("c", 3),), (("c", 4),), (("h", 2),), (("c", 5),), (("c", 7),),
    (("c", 8),), (("c", 9),), (("c", 11),), (("h", 2), ("c", 3)), (("c", 13),),
    (("h", 4),), (("h", 2), ("c", 4)), (("h", 2), ("h", 2)), (("h", 3), ("c", 2)),
    (("h", 3), ("c", 2)), (("h", 2), ("c", 5)), (("h", 2), ("c", 5)), (("h", 2), ("c", 5)),
    (("h", 2), ("c", 2), ("c", 3)), (("h", 5),), (("h", 3), ("c", 3)),
    (("h", 2), ("c", 7)), (("h", 2), ("c", 7)), (("h", 4), ("c", 2)), (("h", 4), ("c", 2)),
    (("h", 6),), (("h", 2), ("h", 3)), (("h", 3), ("c", 4)), (("h", 2), ("c", 2), ("c", 5)),
    (("h", 3), ("c", 5)), (("h", 4), ("c", 3)), (("h", 7),), (("h", 5), ("c", 2)),
    (("h", 8), ("c", 2)),
)
NEWFORM_SLOTS = (
    (("h", 2), ("c", 3)), (("h", 2), ("c", 4)), (("h", 2), ("h", 2)),
    (("h", 3), ("c", 2)), (("h", 2), ("c", 5)), (("h", 2), ("c", 2), ("c", 3)),
    (("h", 3), ("c", 3)), (("h", 4), ("c", 2)), (("h", 2), ("h", 3)),
    (("h", 4), ("c", 3)),
)

# Gram matrices whose discriminant forms are isomorphic to the cyclic blocks
# of order 2, 3 and 4 below.
_GRAM_BLOCKS = {2: [[2]], 3: [[2, 1], [1, 2]], 4: [[4]]}

# The weil check inputs of cli_mix differ 2.5-fold in cost. They are grouped
# in threes by their cost at the commit that added the benchmark, and a pass
# takes one input from each of its groups, so that the seed picks the files
# but not the cost of the pass. The inputs of the other verbs cost about the
# same.
WEIL_CHECK_GROUPS = (("A1m", "A2m", "A1"), ("D4", "Z4", "A3"), ("A2", "U2", "Z6"),
                     ("U3", "A1Z4", "Z8"), ("G12", "A1Z6", "U4"), ("A1U3", "Q15", "U5"))

SIZES = {
    "full": {"weil_slots": len(WEIL_SLOTS), "picard_nmax": 30,
             "newform_slots": len(NEWFORM_SLOTS), "newform_all_fixed": True,
             "cli": {"fqm_info": 8, "dims_report": 6, "weil_check": 6, "table1": 1,
                     "lattice_split": 3, "lifts_kernel": 1, "specfun": 3,
                     "vvmf_check": 3, "malformed": 3}},
    "smoke": {"weil_slots": 12, "picard_nmax": 12, "newform_slots": 3,
              "newform_all_fixed": False,
              "cli": {"fqm_info": 3, "dims_report": 2, "weil_check": 2, "specfun": 2,
                      "malformed": 3}},
}

TRUNCATION = F(6)
# Exponents at which the adjoint pairing identity is checked.
PAIRING_M = tuple(sorted({F(k, d) for d in (1, 2, 3, 4, 5) for k in range(6 * d + 1)}))


def _block(rng, kind, n):
    """A presentation of the block: Q(g) = a/2n for the generator g = u*g0."""
    if kind == "h":
        return fqm.hyperbolic_module(n)
    if n in _GRAM_BLOCKS and rng.random() < 0.5:
        return fqm.fqm_from_gram(_GRAM_BLOCKS[n])
    a = 1 if n % 2 == 0 else 2
    u = rng.choice([u for u in range(1, n + 1) if gcd(u, n) == 1])
    return fqm.cyclic_module(n, F(a * u * u, 2 * n))


def _module(rng, profile):
    parts = [_block(rng, kind, n) for kind, n in profile]
    rng.shuffle(parts)
    out = parts[0]
    for p in parts[1:]:
        out = fqm.direct_sum(out, p)
    return out


def _weil_jobs(rng, size):
    jobs = []
    for profile in WEIL_SLOTS[:size["weil_slots"]]:
        module = _module(rng, profile)
        jobs.append(("weil:%s" % ",".join(map(str, module.orders)),
                     lambda m=module: weil.relation_report(m)))
    return jobs


def _picard_jobs(rng, size):
    rows = list(range(1, size["picard_nmax"] + 1))
    rng.shuffle(rows)
    return [("picard:%d" % n, lambda n=n: dims.picard_rank(n)) for n in rows]


# -- newform_roundtrip ------------------------------------------------------------


def _grid(module, keep=None):
    """(mu, m) for every congruence-allowed exponent m up to the truncation."""
    points = []
    for mu in module.elements():
        if keep is None or keep(mu):
            m = mu.q()
            while m <= TRUNCATION:
                points.append((mu, m))
                m += 1
    return points


def _seeded_points(points, share, rng):
    """A seeded choice of a fixed share of the points, in grid order.

    The number of coefficients is fixed, so that the cost of a job does not
    depend on the seed.
    """
    return [points[i] for i in sorted(rng.sample(range(len(points)), int(share * len(points))))]


def _random_series(module, rng, cyclotomic=False):
    """Random coefficients on half the congruence-allowed grid up to the truncation.

    With cyclotomic=True every second coefficient is a sum of two or three
    scaled roots of unity, of order 3, 4, 8 and 12 in turn, some with negative
    coefficients.
    """
    f = qs.VectorValuedQSeries(module, F(3), TRUNCATION)
    for i, (mu, m) in enumerate(_seeded_points(_grid(module), 0.5, rng)):
        if cyclotomic and i % 2:
            mod = (3, 4, 8, 12)[i // 2 % 4]
            terms = {rng.randrange(mod): F(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(rng.randint(2, 3))}
            f.set(mu, m, cyclo.CyclotomicNumber(mod, terms))
        else:
            f.set(mu, m, F(rng.randint(-9, 9)))
    return f


def _newpart_series(module, e_ref, rng):
    """Random series on 70 % of the grid of the content-one classes relative to e_ref."""
    def content_one(mu):
        return e_ref.order() == 1 or fqm.content(module, e_ref, mu) == 1

    f = qs.VectorValuedQSeries(module, F(3), TRUNCATION)
    for mu, m in _seeded_points(_grid(module, content_one), 0.7, rng):
        f.set(mu, m, F(rng.randint(-9, 9)))
    return f


def _roundtrip(series):
    return all(qs.read_series(qs.write_series(s), s.module) == s for s in series)


def _arrows_job(module, job_seed):
    """Descend-then-raise, the adjoint pairing, reconstruction and file round trips.

    The identities run for every isotropic subgroup of order 2 to 5, or for
    the trivial subgroup if there is none.
    """
    rng = random.Random(job_seed)
    candidates = [h for n in (2, 3, 4, 5) if module.order() % n == 0
                  for h in fqm.isotropic_subgroups(module, n)]
    if not candidates:
        candidates = [fqm.Subgroup(module, [module.zero()])]
    out = {}
    for r, h in enumerate(candidates):
        b = qs.reduction(module, h)[0]
        g = _random_series(b, rng)
        up = qs.up_arrow(g, module, h)
        checks = {"descend_raise": qs.down_arrow(up, h) == g * h.order}
        f = _random_series(module, rng)
        down_f = qs.down_arrow(f, h)
        checks["adjoint"] = all(qs.pairing_at(up, f, m) == qs.pairing_at(g, down_f, m)
                                for m in PAIRING_M)
        if h.order > 1:
            rec, report = qs.reconstruct_from_descent(up, h)
            checks["reconstruct"] = bool(report["reconstructed"]) and rec == up
        checks["roundtrip"] = _roundtrip((g, up, _random_series(b, rng, cyclotomic=True)))
        out.update(("%s:%d" % (k, r), v) for k, v in checks.items())
    return out


def _inclusion_exclusion_job(n, primes, job_seed):
    """Inclusion-exclusion over isotropic subgroups of distinct prime orders."""
    rng = random.Random(job_seed)
    a = fqm.hyperbolic_module(n)
    e = a.element((0, 1))
    subs = [fqm.cyclic_subgroup_id(a, e, p) for p in primes]
    pieces = []
    for h in subs:
        b = qs.reduction(a, h)[0]
        pieces.append(qs.up_arrow(_random_series(b, rng), a, h))
    f = _sum(pieces)
    total = _sum([term * sign for _idx, sign, term in qs.decompose_prime_union(f, subs)])
    return {"inclusion_exclusion": total == f, "roundtrip": _roundtrip((f,))}


def _filtration_job(n, depth, job_seed):
    """The cyclic oldform filtration at the given depth, decomposed and re-summed."""
    rng = random.Random(job_seed)
    a = fqm.hyperbolic_module(n)
    e = a.element((0, 1))
    pieces = []
    for d in range(2, n + 1):
        if n % d or qs._omega(d) < depth:
            continue
        i_d = fqm.cyclic_subgroup_id(a, e, d)
        b, proj, _s, _fib = qs.reduction(a, i_d)
        g = _newpart_series(b, proj(e), rng) if d != n else _random_series(b, rng)
        pieces.append(qs.up_arrow(g, a, i_d))
    f = _sum(pieces)
    dec = qs.oldform_decompose(f, e, depth)
    return {"filtration": qs.resum_decomposition(dec, a, e) == f,
            "roundtrip": _roundtrip((f,))}


def _sum(series):
    out = series[0]
    for s in series[1:]:
        out = out + s
    return out


def _newform_jobs(rng, size):
    jobs = []
    # Three jobs per module on the same subgroups with fresh series, so the
    # reduction cache is reused across jobs.
    for profile in NEWFORM_SLOTS[:size["newform_slots"]]:
        module = _module(rng, profile)
        for _ in range(3):
            seed = rng.randrange(2 ** 32)
            jobs.append(("newform:%d:arrows:%s" % (len(jobs), ",".join(map(str, module.orders))),
                         lambda m=module, s=seed: _arrows_job(m, s)))
    fixed = [("incl_excl:6", _inclusion_exclusion_job, (6, (2, 3))),
             ("filtration:4:1", _filtration_job, (4, 1)),
             ("filtration:6:2", _filtration_job, (6, 2))]
    if size["newform_all_fixed"]:
        # Three distinct primes need an isotropic subgroup of order 30, so this
        # module has order 900: the one input above the |A| <= 48 profile.
        fixed += [("incl_excl:6", _inclusion_exclusion_job, (6, (2, 3))),
                  ("incl_excl:30", _inclusion_exclusion_job, (30, (2, 3, 5))),
                  ("filtration:4:2", _filtration_job, (4, 2)),
                  ("filtration:6:1", _filtration_job, (6, 1))]
    for name, fn, args in fixed:
        seed = rng.randrange(2 ** 32)
        jobs.append(("newform:%d:%s" % (len(jobs), name),
                     lambda fn=fn, args=args, s=seed: fn(*args, s)))
    return jobs


def cli_commands(rng, size, golden):
    """(key, argv template) of each cli_mix job; argv holds {dir} for the input files."""
    by_category = {}
    for key, spec in sorted(golden["cli"].items()):
        by_category.setdefault(spec["category"], []).append(key)
    keys = []
    for category, count in size["cli"].items():
        if category == "weil_check":
            keys += ["weil_check:" + rng.choice(group)
                     for group in rng.sample(WEIL_CHECK_GROUPS, count)]
        else:
            keys += rng.sample(by_category[category], count)
    rng.shuffle(keys)
    return [("cli:" + key, golden["cli"][key]["argv"]) for key in keys]


def build(name, seed, size_name, golden=None):
    """Jobs of a workload, made from the seed.

    Library jobs are (key, fn); cli_mix jobs are (key, argv template).
    """
    rng = random.Random("%s:%d" % (name, seed))
    size = SIZES[size_name]
    if name == "cli_mix":
        return cli_commands(rng, size, golden)
    return {"weil_relations": _weil_jobs, "picard_table": _picard_jobs,
            "newform_roundtrip": _newform_jobs}[name](rng, size)
