"""Exact integer arithmetic shared by the package.

Owns Gram-matrix validation (even_gram), the parsing of rational input text
(parse_rational_pair, parse_rational), the argument readers of the public API
(integer, rational, and shape for vectors and matrices), the extended gcd
(ext_gcd), the Smith and Hermite forms, lattice bases, signatures, and the one
trial-division factorization with its divisors and primality test
(factorization, divisors, is_prime). All matrices are lists of lists (or
tuples of tuples). Functions never mutate their arguments.
"""

from fractions import Fraction

from .errors import PreconditionError


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def even_gram(gram):
    """The Gram matrix of a non-degenerate even lattice, as a tuple of int rows.

    Entries may be anything Fraction accepts (ints, Fractions, decimal strings)
    but must have integral values; the matrix must be square, symmetric, with
    even diagonal and nonzero determinant.
    """
    out = shape(gram, "gram matrix",
                lambda x: integer(rational(x, "gram matrix entry"), "gram matrix entries"),
                None, None)
    n = len(out)
    for i in range(n):
        if out[i][i] % 2:
            raise PreconditionError("gram matrix must have even diagonal")
        for j in range(n):
            if out[i][j] != out[j][i]:
                raise PreconditionError("gram matrix must be symmetric")
    if determinant(out) == 0:
        raise PreconditionError("gram matrix is singular")
    return out


# Fraction("1e999999999") builds 10**999999999; the text readers refuse a
# decimal exponent above this before any integer is built (it matches the
# default limit on the digits of int(str)).
DECIMAL_EXPONENT_BOUND = 4300


def parse_rational_pair(text):
    """The ints (a, b) with text = a/b and b >= 1, not reduced to lowest terms (see _read_text)."""
    x = _read_text(text)
    return x if type(x) is tuple else (x.numerator, x.denominator)


def parse_rational(x):
    """Fraction(x), built once; text is read by _read_text."""
    if isinstance(x, str):
        x = _read_text(x)
        return Fraction(*x) if type(x) is tuple else x
    return Fraction(x)


def _read_text(text):
    """The ints (a, b) of ASCII text [-]a/b or [-]a (digits a, b and b != 0), read with int().

    Every other text (spaces, signs, underscores, decimals, exponents, other
    digits) is read to Fraction(text), the one route that reads decimals, with
    ValueError for a decimal exponent above the bound.
    """
    a, slash, b = text.partition("/")
    if text.isascii() and (a[1:] if a[:1] == "-" else a).isdigit():
        if not slash:
            return int(a), 1
        if b.isdigit() and b.strip("0"):
            return int(a), int(b)
    if "e" in text or "E" in text:
        if abs(int(text.lower().partition("e")[2])) > DECIMAL_EXPONENT_BOUND:
            raise ValueError("decimal exponent of %r exceeds %d"
                             % (text, DECIMAL_EXPONENT_BOUND))
    return Fraction(text)


def integer(x, what, least=None):
    """x as an int, refused below least when given; what (a plural noun) names it in a refusal.

    An int, or a float or Fraction of integral value, is read as its int; 1.5,
    "3" or None is refused, never truncated.
    """
    if type(x) is not int:
        try:
            n = int(x)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != x:
            raise PreconditionError("%s must be integers" % what)
        x = n
    if least is not None and x < least:
        raise PreconditionError("%s must be at least %d, not %d" % (what, least, x))
    return x


def rational(x, what):
    """x as an int or a Fraction; what (a singular noun) names it in the refusal of other input.

    Any other x is read by parse_rational, so "5/2" and 2.5 are 5/2, and "x" or
    None is refused.
    """
    # the exact types first: isinstance against Fraction is an ABC check
    if type(x) is int or type(x) is Fraction or isinstance(x, Fraction):
        return x
    try:
        return parse_rational(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise PreconditionError("%s must be a rational number, not %r" % (what, x)) from None


def shape(x, what, read, *dims):
    """x as a tuple of entries read by read (which refuses a bad entry), or as a tuple of rows.

    dims is (n,) for a vector of length n and (r, c) for an r x c matrix; n =
    None takes any length and (None, None) any square matrix. Anything else,
    an int or None in place of the sequence included, is refused by what
    before an entry is read.
    """
    try:
        rows = tuple(x) if len(dims) == 1 else tuple(map(tuple, x))
    except TypeError:
        rows = None
    if rows is not None:
        n = len(rows) if dims[0] is None else dims[0]
        c = n if dims[-1] is None else dims[-1]
        if len(rows) == n and (len(dims) == 1 or all(len(row) == c for row in rows)):
            if len(dims) == 1:
                return tuple(map(read, rows))
            return tuple(tuple(map(read, row)) for row in rows)
    if len(dims) == 1:
        form = "a list" if dims[0] is None else "a list of length %d" % dims[0]
    else:
        form = "square" if dims[0] is None else "%d x %d" % dims
    raise PreconditionError("%s must be %s" % (what, form))


def determinant(a):
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invert_rational(a):
    """Inverse of a nonsingular square matrix, as Fractions."""
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise PreconditionError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def smith_normal_form(a):
    """Return (d, u, v) with u*a*v diagonal, u and v unimodular.

    d is the list of diagonal entries (non-negative, d[i] | d[i+1]).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(map(int, row)) for row in a]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in m:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def scale_row(i, c):
        m[i] = [c * x for x in m[i]]
        u[i] = [c * x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # pivot: entry of least nonzero magnitude in the trailing block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(m[i][j])
                if x and (best is None or x < best):
                    best, piv = x, (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the trailing block by the pivot
        p = m[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if m[i][i] < 0:
            scale_row(i, -1)
    d = [m[i][i] for i in range(min(rows, cols))]
    return d, u, v


def ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g = +-gcd(a, b), by the extended Euclidean algorithm.

    The sign of g is the one the floor-division remainders leave; callers fix it.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    return old_r, old_s, old_t


def hermite_rows(rows, moduli):
    """Row Hermite normal form of the lattice spanned by rows and diag(moduli).

    The unique upper triangular basis with pivots p_i > 0 (dividing moduli[i])
    and 0 <= h[k][i] < p_i above them. Working rows are kept reduced mod moduli.
    """
    r = len(moduli)
    work = [[x % d for x, d in zip(row, moduli)] for row in rows]
    out = []
    for i in range(r):
        piv = [0] * r
        piv[i] = moduli[i]
        for w in work:
            if w[i]:
                g, s, t = ext_gcd(piv[i], w[i])
                a, b = piv[i] // g, w[i] // g
                piv, w[:] = ([s * x + t * y for x, y in zip(piv, w)],
                             [(a * y - b * x) % d for x, y, d in zip(piv, w, moduli)])
        out.append([x % d if j > i else x for j, (x, d) in enumerate(zip(piv, moduli))])
    for j in range(r):
        for k in range(j):
            q = out[k][j] // out[j][j]
            out[k] = [x - q * y for x, y in zip(out[k], out[j])]
    return tuple(tuple(row) for row in out)


def solve_hermite(rows, x):
    """The integer y with y*rows = x, or None when y is not integral.

    rows is square and upper triangular with positive pivots (a Hermite form),
    so y is found by forward substitution with exact division.
    """
    y = []
    for j, xj in enumerate(x):
        s = xj - sum(yk * row[j] for yk, row in zip(y, rows))
        yj, rest = divmod(s, rows[j][j])
        if rest:
            return None
        y.append(yj)
    return y


def image_basis(a):
    """Basis (list of column vectors) of the lattice spanned by the columns of a.

    From u*a*v = diag(d) with v unimodular, column i of a*v is d_i times column
    i of u^-1, so the columns of a*v with d_i != 0 span the image.
    """
    d, _u, v = smith_normal_form(a)
    av = mat_mul(a, v)
    return [[row[i] for row in av] for i, di in enumerate(d) if di]


def kernel_basis(a):
    """Basis of the integer kernel lattice {x : a*x = 0}."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    d, _u, v = smith_normal_form(a)
    rank = sum(1 for x in d if x)
    return [[v[r][j] for r in range(cols)] for j in range(rank, cols)]


def signature_pair(gram):
    """(b_plus, b_minus) of a symmetric rational matrix via congruence diagonalization."""
    n = len(gram)
    m = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is None:
            pair = None
            for ii in active:
                for jj in active:
                    if ii != jj and m[ii][jj] != 0:
                        pair = (ii, jj)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero (degenerate form)
            i, j = pair
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            piv = i
        p = m[piv][piv]
        if p > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        for i in active:
            if m[i][piv] != 0:
                f = m[i][piv] / p
                for k in range(n):
                    m[i][k] -= f * m[piv][k]
                for k in range(n):
                    m[k][i] -= f * m[k][piv]
    return pos, neg


def factorization(n):
    """The prime factorization [(p, e), ...] of n >= 1, p ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n):
    """The positive divisors of n >= 1, ascending, from its factorization."""
    out = [1]
    for p, e in factorization(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def is_prime(n):
    """Primality, read from the factorization."""
    return n >= 2 and factorization(n) == [(n, 1)]
