"""Vector-valued q-expansions and the oldform/newform machinery.

A series is a raw coefficient container Sum c(m, mu) q^m e_mu: modularity is
never assumed. The transformation-derived properties the decompositions rely
on (support and coset-translation invariance) are runtime-checked
preconditions, so the combinatorics can be exercised on synthetic data.
Everything the arrows and decompositions know about H^perp comes from the
cached reduction: its fibers are the H-cosets sect(nu) + H, nu in H^perp/H,
as sorted coordinate tuples.

Storage: `components` maps the coords of mu to its component {k: c(k/N, mu)},
with N = module.level() and the integer k = N*m (exact, since m = Q(mu) mod 1
lies in (1/N)Z). Only nonzero values are stored and no component is empty. A
rational value is stored as an int when it is integral and as a Fraction
otherwise (_stored), so the arrows, sums and comparisons of integral series run
in int arithmetic; an int equals the Fraction it replaces.
A component dict is immutable once stored: no code writes into a dict held in
`components`. So one dict may be shared by several mu and by several series
(up_arrow stores one dict for a whole fiber, lifts one dict per Q value, copy()
copies the outer dict only, a sum keeps the untouched components), and set
stores a new dict for the component it changes.

Files: each module keeps a vocabulary of the mu and m fields of series records
(module._vocabulary, see _mu_entry), filled on first use. write_series prints
those fields from it, and read_series resolves them there, so a field spelt as
write_series spells it is parsed once per module, not once per file, and no
element is built; down_arrow reads N*Q there too. Any other spelling is parsed
where it occurs. read_series reads each m and rational coeff text as an integer
pair a/b (parse_rational_pair), so a file of integral coefficients is read to
k = a*N/b and ints, with no Fraction per record.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from . import fqm
from ._intmat import (divisors, factorization, integer, is_prime, parse_rational,
                      parse_rational_pair, rational)
from .cyclo import CyclotomicNumber
from .errors import ConsistencyError, PreconditionError

_EMPTY = {}


def _conj(v):
    return v.conjugate() if isinstance(v, CyclotomicNumber) else v


def _is_zero_value(v):
    if isinstance(v, CyclotomicNumber):
        return v.is_zero()
    return not v


def _stored(v):
    """v as a series stores it: an integral Fraction becomes its int."""
    # the exact types first: isinstance(v, Fraction) is an ABC check
    t = type(v)
    if t is Fraction or (t is not int and t is not CyclotomicNumber and isinstance(v, Fraction)):
        return v.numerator if v.denominator == 1 else v
    return v


def _scaled(comp, scalar):
    """{k: v * scalar} without the zero products.

    An int or Fraction scalar p/q multiplies an int value in ints, so the
    product is a Fraction only when q does not divide v*p.
    """
    t = type(scalar)
    if t is int:
        p, q = scalar, 1
    elif t is Fraction:
        p, q = scalar.numerator, scalar.denominator
    else:
        p = None
    out = {}
    for k, v in comp.items():
        if p is not None and type(v) is int:
            w, rest = divmod(v * p, q)
            if rest:
                w = Fraction(v * p, q)
        else:
            w = _stored(v * scalar)
        if not _is_zero_value(w):
            out[k] = w
    return out


def _truncated(comp, k_max):
    """comp without the exponents above k_max (comp itself when there are none)."""
    if max(comp) <= k_max:
        return comp
    return {k: v for k, v in comp.items() if k <= k_max}


def _summed(a, b):
    """{k: a[k] + b[k]} without the zero sums."""
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
        if _is_zero_value(w):
            out.pop(k, None)
        else:
            out[k] = _stored(w)
    return out


class VectorValuedQSeries:
    """Truncated expansion Sum_{mu, m <= truncation} c(m, mu) q^m e_mu.

    level is module.level(), the exponent scale k = level * m of the
    components, and k_max = floor(level * truncation) the largest stored k.
    """

    def __init__(self, module, weight, truncation):
        self.module = module
        # series made from other series pass their Fractions on, which need no rewrap
        self.weight = weight if type(weight) is Fraction else Fraction(rational(weight, "weight"))
        self.truncation = (truncation if type(truncation) is Fraction
                           else Fraction(rational(truncation, "truncation")))
        self.level = module.level()
        # floor(level * truncation): the denominator is positive
        self.k_max = self.level * self.truncation.numerator // self.truncation.denominator
        self.components = {}

    def copy(self):
        out = VectorValuedQSeries(self.module, self.weight, self.truncation)
        out.components = dict(self.components)
        return out

    def _exponent(self, coords, nq, k, n):
        """The stored exponent of m = k/n at the mu with these coords and N*Q(mu) = nq.

        It refuses m as set does: not congruent to Q(mu) mod 1, or past the
        truncation.
        """
        level = self.level
        kk, rest = divmod(k * level, n)
        if rest or (kk - nq) % level:
            raise PreconditionError("exponent %s is not congruent to Q((%s)) mod 1"
                                    % (Fraction(k, n), ",".join(map(str, coords))))
        if kk > self.k_max:
            raise PreconditionError("exponent exceeds the truncation bound")
        return kk

    def _put(self, coords, comp, n):
        """Store {k: value} at the exponents k/n as the component at coords, checked as by set.

        coords are reduced mod the orders; N*Q is read from the module's vocabulary.
        """
        nq = _mu_entry(self.module, coords)[1]
        out = {}
        for k, v in comp.items():
            k = self._exponent(coords, nq, k, n)
            if not _is_zero_value(v):
                out[k] = _stored(v)
        if out:
            self.components[coords] = out
        else:
            self.components.pop(coords, None)

    def set(self, mu, m, value):
        """Set c(m, mu) by storing a new component dict for mu.

        A stored dict is never written to, so set costs O(size of mu's
        component); in the newform_roundtrip benchmark that component holds at
        most 6 entries. The value must be an int, a Fraction or a
        CyclotomicNumber.
        """
        fqm._require_of(self.module, mu, "element")
        # the exact types first: isinstance against Fraction is an ABC check
        t = type(value)
        if t is Fraction:
            if value.denominator == 1:
                value = value.numerator
        elif t is not int and t is not CyclotomicNumber:
            if not isinstance(value, (Fraction, CyclotomicNumber)):
                raise PreconditionError(
                    "coefficient must be an int, Fraction or CyclotomicNumber")
            value = _stored(value)
        if type(m) is not Fraction:
            m = rational(m, "exponent")
        nq = self.module.nq_value(mu)
        c = mu.coords
        level = self.level
        k, rest = divmod(m.numerator * level, m.denominator)
        if rest or (k - nq) % level or k > self.k_max:
            self._exponent(c, nq, m.numerator, m.denominator)  # raises
        comp = dict(self.components.get(c, _EMPTY))
        if value.is_zero() if isinstance(value, CyclotomicNumber) else not value:
            comp.pop(k, None)
        else:
            comp[k] = value
        if comp:
            self.components[c] = comp
        else:
            self.components.pop(c, None)

    def get(self, mu, m):
        fqm._require_of(self.module, mu, "element")
        m = rational(m, "exponent")
        k, rest = divmod(m.numerator * self.level, m.denominator)
        if rest:
            return 0
        return self.components.get(mu.coords, _EMPTY).get(k, 0)

    def component(self, mu):
        """The coefficient map m -> c(m, mu) of one basis component."""
        fqm._require_of(self.module, mu, "element")
        n = self.level
        return {Fraction(k, n): v for k, v in self.components.get(mu.coords, _EMPTY).items()}

    def items(self):
        """Iterate ((coords, m), c(m, mu)) over the stored nonzero coefficients."""
        n = self.level
        for c, comp in self.components.items():
            for k, v in comp.items():
                yield (c, Fraction(k, n)), v

    def nonzero_count(self):
        """Number of stored nonzero coefficients."""
        return sum(map(len, self.components.values()))

    def support(self):
        """Elements whose component is not identically zero."""
        return sorted(self.components)

    def __add__(self, other):
        if self.module != other.module or self.weight != other.weight:
            raise PreconditionError("series are not compatible")
        out = VectorValuedQSeries(self.module, self.weight,
                                  min(self.truncation, other.truncation))
        k_max = out.k_max
        comps = out.components
        for c, comp in self.components.items():
            comp = _truncated(comp, k_max)
            if comp:
                comps[c] = comp
        for c, comp in other.components.items():
            comp = _truncated(comp, k_max)
            if c in comps:
                comp = _summed(comps[c], comp)
            if comp:
                comps[c] = comp
            else:
                comps.pop(c, None)
        return out

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        out = VectorValuedQSeries(self.module, self.weight, self.truncation)
        # components shared by several mu are scaled once
        products = {}
        for c, comp in self.components.items():
            key = id(comp)
            if key not in products:
                products[key] = _scaled(comp, scalar)
            if products[key]:
                out.components[c] = products[key]
        return out

    __rmul__ = __mul__

    def is_zero(self):
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, VectorValuedQSeries):
            return NotImplemented
        if self.module != other.module:
            return False
        mine, theirs = self.components, other.components
        if mine.keys() != theirs.keys():
            return False
        return all(comp is theirs[c] or comp == theirs[c] for c, comp in mine.items())

    def __repr__(self):
        return "VectorValuedQSeries(module=%s, weight=%s, nonzero=%d)" % (
            self.module.orders, self.weight, self.nonzero_count())


# -- subquotient plumbing (cached per module and subgroup) -----------------------

_REDUCTIONS = {}
# The number of reductions kept, oldest evicted first.
REDUCTION_CACHE = 256


def reduction(module, h):
    """Cached (B, proj, sect, fibers) for B = H^perp/H.

    fibers maps the coords of each nu in B to the sorted coords of its H-coset
    sect(nu) + H; the union of the fibers is H^perp. The cosets are built on
    coordinate tuples: the sections of B's generators are combined and each
    element of H added, mod the orders. fqm.subquotient rejects a subgroup
    that is not isotropic. The last REDUCTION_CACHE results are kept.
    """
    fqm._require_of(module, h, "subgroup")
    key = (module, h.hnf)
    hit = _REDUCTIONS.get(key)
    if hit is not None:
        return hit
    b, proj, sect = fqm.subquotient(module, h)
    orders = module.orders
    # sect(nu) for the nu in product order, which is the order of b.elements()
    secs = [(0,) * module.rank]
    for g, d in zip(b.generators(), b.orders):
        row = sect(g).coords
        secs = [tuple((s + c * x) % m for s, x, m in zip(sec, row, orders))
                for sec in secs for c in range(d)]
    hs = [x.coords for x in h.elements]
    fibers = {nu: sorted(tuple((s + x) % m for s, x, m in zip(sec, hx, orders)) for hx in hs)
              for nu, sec in zip(product(*(range(d) for d in b.orders)), secs)}
    if len(_REDUCTIONS) >= REDUCTION_CACHE:
        del _REDUCTIONS[next(iter(_REDUCTIONS))]
    _REDUCTIONS[key] = hit = (b, proj, sect, fibers)
    return hit


def _perp(module, h):
    """The coords of H^perp, as the union of the reduction fibers."""
    return {mu for mus in reduction(module, h)[3].values() for mu in mus}


def up_arrow(g, module, h):
    """Spread a series over H^perp/H along the projection: (g up)_mu = g_{mu+H}."""
    b, proj, _sect, fibers = reduction(module, h)
    if g.module != b:
        raise PreconditionError("series does not live on the subquotient module")
    out = VectorValuedQSeries(module, g.weight, g.truncation)
    scale = out.level // g.level
    for c, comp in g.components.items():
        if scale != 1:
            comp = {k * scale: v for k, v in comp.items()}
        for mu in fibers[c]:
            out.components[mu] = comp
    return out


def down_arrow(f, h):
    """Sum a series over the fibers: (f down)_nu = sum over mu in sect(nu) + H."""
    b, _proj, _sect, fibers = reduction(f.module, h)
    out = VectorValuedQSeries(b, f.weight, f.truncation)
    comps = f.components
    for nu, mus in fibers.items():
        sums = {}
        for mu in mus:
            for k, v in comps.get(mu, _EMPTY).items():
                sums[k] = sums[k] + v if k in sums else v
        if sums:
            out._put(nu, sums, f.level)
    return out


def pairing_at(f, g, m):
    """Hermitian coefficient pairing sum_mu f(m, mu) * conj(g(m, mu))."""
    if f.module != g.module:
        raise PreconditionError("series on different modules")
    m = rational(m, "exponent")
    k, rest = divmod(m.numerator * f.level, m.denominator)
    if rest:
        return 0
    theirs = g.components
    total = 0
    for c, comp in f.components.items():
        v = comp.get(k)
        if v is not None:
            w = theirs.get(c, _EMPTY).get(k)
            if w is not None:
                total = total + v * _conj(w)
    return total


def is_supported_on(f, subgroup_or_elements):
    elems = subgroup_or_elements
    if isinstance(elems, fqm.Subgroup):
        fqm._require_of(f.module, elems, "subgroup")
        elems = elems.elements
    allowed = set(fqm._coords_of(f.module, elems))
    return all(c in allowed for c in f.support())


def _translation_invariant_on(f, mus, h):
    """Check f_{mu+mu'} = f_mu for the given coords mu and all mu' in h, on coordinate tuples."""
    comps = f.components
    orders = f.module.orders
    shifts = [x.coords for x in h.elements if not x.is_zero()]
    for mu in mus:
        base = comps.get(mu)
        for hx in shifts:
            comp = comps.get(tuple((c + x) % m for c, x, m in zip(mu, hx, orders)))
            if comp is not base and comp != base:
                return False
    return True


def reconstruct_from_descent(f, h):
    """Rebuild a series supported on H^perp from its descent, with a report.

    Returns (reconstruction or None, report). The reconstruction is
    (1/|H|) f down up and is asserted equal to f when both runtime
    preconditions (support and coset invariance) hold.
    """
    report = {
        "supported_on_perp": set(f.support()) <= _perp(f.module, h),
        "translation_invariant": _translation_invariant_on(f, f.support(), h),
    }
    if not (report["supported_on_perp"] and report["translation_invariant"]):
        report["reconstructed"] = False
        return None, report
    rec = up_arrow(down_arrow(f, h), f.module, h) * Fraction(1, h.order)
    report["reconstructed"] = rec == f
    if not report["reconstructed"]:
        raise ConsistencyError("reconstruction identity failed on checked input")
    return rec, report


def decompose_prime_union(f, subgroups):
    """Inclusion-exclusion decomposition over isotropic subgroups of distinct prime order.

    Returns a list of (indices, sign, term) with term = (1/|H_S|) f down up along
    H_S = sum of the selected subgroups; the signed terms sum back to f.
    """
    a = f.module
    orders = [h.order for h in subgroups]
    if len(set(orders)) != len(orders) or any(not is_prime(p) for p in orders):
        raise PreconditionError("subgroup orders must be distinct primes")
    perps = [_perp(a, h) for h in subgroups]
    if not all(any(c in p for p in perps) for c in f.support()):
        raise PreconditionError("series is not supported on the union of complements")
    for i, h in enumerate(subgroups):
        only = [c for c in f.support()
                if c in perps[i] and not any(c in p for j, p in enumerate(perps) if j != i)]
        if not _translation_invariant_on(f, only, h):
            raise PreconditionError("coset-translation invariance fails for subgroup %d" % i)
    terms = []
    m = len(subgroups)
    for mask in range(1, 1 << m):
        idx = tuple(i for i in range(m) if mask >> i & 1)
        hs = subgroups[idx[0]]
        for i in idx[1:]:
            hs = hs + subgroups[i]
        sign = -1 if len(idx) % 2 == 0 else 1
        term = up_arrow(down_arrow(f, hs), a, hs) * Fraction(1, hs.order)
        terms.append((idx, sign, term))
    return terms


def _omega(n):
    """The number of prime factors of n, counted with multiplicity."""
    return sum(e for _p, e in factorization(n))


def moebius_resum(f, e):
    """The alternating-sum reconstruction -sum_{1<d|N} mu(d)/d f down up along I_d."""
    a = f.module
    fqm._require_of(a, e, "reference element")
    n = e.order()
    out = VectorValuedQSeries(a, f.weight, f.truncation)
    for d in divisors(n)[1:]:
        primes = factorization(d)
        if any(k > 1 for _p, k in primes):
            continue
        mob = (-1) ** len(primes)
        i_d = fqm.cyclic_subgroup_id(a, e, d)
        term = up_arrow(down_arrow(f, i_d), a, i_d) * Fraction(-mob, d)
        out = out + term
    return out


def is_oldform(f, e):
    """True when every stored nonzero component pairs non-trivially with <e>."""
    fqm._require_of(f.module, e, "reference element")
    n = e.order()
    if n < 2 or e.q() != 0:
        raise PreconditionError("reference element must be isotropic of order >= 2")
    return all(fqm.content(f.module, e, f.module.element(c)) > 1 for c in f.support())


def oldform_decompose(f, e, t):
    """Peel a series supported on {Omega(content) >= t} into subquotient layers.

    Returns {d: series over A(d)} for the divisors d of N = ord(e) with
    Omega(d) >= t, such that the sum of the raised pieces reproduces the
    input. Each layer extracts the components the raised sum determines
    uniquely (exact content d) and pushes the remainder one layer down;
    the support and coset-invariance preconditions are checked stepwise.
    """
    fqm._require_of(f.module, e, "reference element")
    t = integer(t, "depths", 0)
    a = f.module
    n = e.order()
    if e.q() != 0:
        raise PreconditionError("reference element must be isotropic")
    if t == 0:
        return {1: f.copy()}
    result = {}
    cur = f.copy()
    for level in range(t, _omega(n) + 1):
        for c in cur.support():
            if _omega(fqm.content(a, e, a.element(c))) < level:
                raise PreconditionError(
                    "support precondition fails at recursion depth %d" % level)
        for d in divisors(n):
            if _omega(d) != level:
                continue
            i_d = fqm.cyclic_subgroup_id(a, e, d)
            b, proj, _sect, fibers = reduction(a, i_d)
            e_b = proj(e)
            new = [(c, mus[0]) for c, mus in fibers.items()
                   if fqm.content(b, e_b, b.element(c)) == 1]
            if not _translation_invariant_on(cur, [mu for _nu, mu in new], i_d):
                raise PreconditionError(
                    "coset-translation invariance fails at depth %d" % level)
            h = VectorValuedQSeries(b, f.weight, f.truncation)
            for nu, mu in new:
                comp = cur.components.get(mu)
                if comp:
                    h._put(nu, comp, cur.level)
            result[d] = h
            if not h.is_zero():
                cur = cur - up_arrow(h, a, i_d)
    if not cur.is_zero():
        raise ConsistencyError("decomposition did not terminate with a zero remainder")
    return result


def resum_decomposition(parts, module, e):
    """Sum the raised layers of an oldform decomposition back over the module."""
    out = None
    for d, g in sorted(parts.items()):
        if d == 1:
            piece = g.copy()
        else:
            i_d = fqm.cyclic_subgroup_id(module, e, d)
            piece = up_arrow(g, module, i_d)
        out = piece if out is None else out + piece
    return out


# -- file format -------------------------------------------------------------------

# Coefficient roots of unity may have order up to the Weil-matrix modulus
# lcm(8, level) of the largest admissible module; a zero test at that order costs
# at most order * sum(p - 1) dict operations over the primes p dividing it.
ROOT_ORDER_BOUND = 8 * fqm.LEVEL_BOUND


# A module's vocabulary (module._vocabulary) is one dict holding the fields
# of series records on the module, each built or parsed once per module. A mu
# field as write_series prints it, "mu=(c_1,...,c_r)" with 0 <= c_i < d_i, and
# its coords both map to the entry (coords, N*Q(mu), field). An m field as it
# prints it, "m=a/b" with a/b in lowest terms and k = N*a/b an integer, maps
# to k, and k maps to the record head " m=a/b coeff=". The four kinds of key
# (texts starting "mu=" or "m=", coordinate tuples, ints) never collide, and
# only canonical spellings enter, so the vocabulary holds at most |A|
# coordinate entries.


def _mu_entry(module, coords):
    """(coords, N*Q(mu), "mu=(c_1,...,c_r)") for the coords of mu, reduced mod the orders."""
    vocab = module._vocabulary
    hit = vocab.get(coords)
    if hit is None:
        field = "mu=(%s)" % ",".join(map(str, coords))
        hit = vocab[coords] = vocab[field] = (coords, module._nq_of(coords), field)
    return hit


def _head(module, k):
    """The record head " m=a/b coeff=" of the exponent m = k/N."""
    vocab = module._vocabulary
    hit = vocab.get(k)
    if hit is None:
        n = module.level()
        g = gcd(k, n)
        field = "m=%d/%d" % (k // g, n // g)
        vocab[field] = k
        hit = vocab[k] = " %s coeff=" % field
    return hit


def write_series(f):
    """Serialize to the line-based text format.

    A component dict that several mu share is formatted once; the mu and m
    texts are read from the module's vocabulary.
    """
    lines = ["module: " + ",".join(str(d) for d in f.module.orders),
             "weight: %d/%d" % (f.weight.numerator, f.weight.denominator),
             "truncation: %d/%d" % (f.truncation.numerator, f.truncation.denominator)]
    module = f.module
    vocab = module._vocabulary
    # id(comp) is stable: every component stays alive in f.components
    records = {}
    for c in sorted(f.components):
        comp = f.components[c]
        tails = records.get(id(comp))
        if tails is None:
            tails = records[id(comp)] = []
            for k in sorted(comp):
                v = comp[k]
                if isinstance(v, CyclotomicNumber):
                    text = repr(v)
                elif isinstance(v, int):
                    text = "%d/1" % v
                else:
                    v = Fraction(v)
                    text = "%d/%d" % (v.numerator, v.denominator)
                tails.append((vocab.get(k) or _head(module, k)) + text)
        if tails:
            mu = (vocab.get(c) or _mu_entry(module, c))[2]
            lines.append(mu + ("\n" + mu).join(tails))
    return "\n".join(lines) + "\n"


def read_series(text, module):
    """Parse the line-based format; the module must match the header divisors.

    The mu and m texts are resolved through the module's vocabulary, so a
    text that an earlier file on the module spelt canonically is not parsed
    again.
    """
    if not isinstance(text, str):
        raise PreconditionError("series text must be a str, not %s" % type(text).__name__)
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if len(lines) < 3:
        raise PreconditionError("series file is too short")
    divisors, weight, truncation = (_header_value(ln) for ln in lines[:3])
    expect = ",".join(str(d) for d in module.orders)
    if divisors != expect:
        raise PreconditionError("module divisors %s do not match file header %s"
                                % (expect, divisors))
    try:
        out = VectorValuedQSeries(module, parse_rational(weight), parse_rational(truncation))
    except (ValueError, ZeroDivisionError):
        raise PreconditionError("malformed weight or truncation in header %r"
                                % "; ".join(lines[1:3])) from None
    vocab = module._vocabulary
    level, k_max, orders = out.level, out.k_max, module.orders
    # each distinct coeff text is read once per call, to its value or None for zero
    values = {}
    records = {}
    for ln in lines[3:]:
        try:
            parts = ln.split(" ", 2)
            if (len(parts) == 3 and parts[0][:3] == "mu=" and parts[1][:2] == "m="
                    and parts[2][:6] == "coeff="):
                mu_field, m_field, coeff = parts[0], parts[1], parts[2][6:]
            else:  # the fields in another order than write_series puts them
                fields = dict(part.split("=", 1) for part in parts)
                mu_field, m_field = "mu=" + fields["mu"], "m=" + fields["m"]
                coeff = fields["coeff"]
            mu = vocab.get(mu_field)
            if mu is None:
                coords = tuple(int(x) for x in mu_field[3:].strip("()").split(",") if x != "")
            k = vocab.get(m_field)
            if k is None:
                a, b = parse_rational_pair(m_field[2:])
                k, rest = divmod(a * level, b)
                if rest:
                    k = None
                elif gcd(a, b) == 1 and m_field == "m=%d/%d" % (a, b):
                    vocab[m_field] = k
        except (KeyError, ValueError, ZeroDivisionError):
            raise PreconditionError("malformed series record %r" % ln) from None
        if mu is None:
            if len(coords) != len(orders):
                module.element(coords)  # raises the refusal of element
            mu = _mu_entry(module, tuple([c % d for c, d in zip(coords, orders)]))
        if coeff in values:
            value = values[coeff]
        else:
            value = _parse_value(coeff)
            value = values[coeff] = None if _is_zero_value(value) else value
        # the checks of set, record by record; a later record of the same
        # (mu, m) wins, and each component is stored once at the end
        coords, nq, _field = mu
        if k is None or (k - nq) % level or k > k_max:
            # raises the refusal of set; k is None when N*m is not an integer
            out._exponent(coords, nq, *((a, b) if k is None else (k, level)))
        comp = records.get(coords)
        if comp is None:
            comp = records[coords] = {}
        comp[k] = value
    for coords, comp in records.items():
        comp = {k: v for k, v in comp.items() if v is not None}
        if comp:
            out.components[coords] = comp
    return out


def _header_value(line):
    if ":" not in line:
        raise PreconditionError("malformed header line %r" % line)
    return line.split(":", 1)[1].strip()


def _parse_value(text):
    """An int or a Fraction, or one CyclotomicNumber at the lcm of the root orders of its terms.

    Every rational text is read as an integer pair a/b, and the terms of a
    cyclotomic text are summed as integer numerators over the lcm of their b.
    """
    try:
        text = text.strip()
        if "z" not in text:
            a, b = parse_rational_pair(text)
            q, rest = divmod(a, b)
            return Fraction(a, b) if rest else q
        terms = []
        for part in text.split("+"):
            part = part.strip()
            if "*" in part:
                coeff, power = part.split("*")
                modulus, exponent = power.strip().lstrip("z").split("^")
                modulus = int(modulus)
                if not 1 <= modulus <= ROOT_ORDER_BOUND:
                    raise ValueError("root of unity order out of range")
                # Fraction(text) ignores surrounding spaces, so the strip keeps the value
                terms.append((modulus, int(exponent), *parse_rational_pair(coeff.strip())))
            else:
                terms.append((1, 0, *parse_rational_pair(part)))
    except (ValueError, ZeroDivisionError):
        raise PreconditionError("malformed coefficient %r" % text) from None
    mod = lcm(*(t[0] for t in terms))
    den = lcm(*(t[3] for t in terms))
    coeffs = {}
    for modulus, exponent, a, b in terms:
        e = exponent % modulus * (mod // modulus)
        coeffs[e] = coeffs.get(e, 0) + a * (den // b)
    return CyclotomicNumber._over(mod, coeffs, den)
