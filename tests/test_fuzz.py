"""Property tests for the text parsers: every input parses or is refused cleanly.

A parser may return a value or raise PreconditionError (exit code 2 on the
command line); any other exception, or a run that does not end, is a fault.
The round trip writes random series with rational and multi-term cyclotomic
coefficients and reads them back. The coefficient parser must agree with the
term-by-term oracle of tests/helpers.py on every text.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from discforms import cli, fqm, qseries as qs
from discforms._intmat import DECIMAL_EXPONENT_BOUND, parse_rational
from discforms.cyclo import CyclotomicNumber
from discforms.errors import PreconditionError
from helpers import parse_rational_reference, parse_value_reference

FUZZ = settings(deadline=None, max_examples=150)

# numbers as text, including forms that must be refused without being built
NUMBER = st.one_of(
    st.integers(-60, 60).map(str),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).map(str),
    st.sampled_from(["1.5", "-0.25", "2e3", "1e%d" % (DECIMAL_EXPONENT_BOUND + 1),
                     "1e999999999", "nan", "inf", "1/0", "", "x", "1_0", "+3"]),
    st.text(max_size=4),
)
# root-of-unity orders: small ones, and ones above the bound that must be refused
ROOT_ORDER = st.one_of(st.integers(-2, 48), st.integers(qs.ROOT_ORDER_BOUND + 1, 10 ** 40))
CYCLOTOMIC = st.lists(st.tuples(NUMBER, ROOT_ORDER, st.integers(-100, 100).map(str)),
                      min_size=1, max_size=3).map(
    lambda terms: " + ".join("%s * z%d^%s" % t for t in terms))
COEFFICIENT = st.one_of(NUMBER, CYCLOTOMIC, st.text(max_size=20))


def parses_or_refuses(fn, *args):
    try:
        fn(*args)
    except PreconditionError:
        pass


@st.composite
def gram_texts(draw):
    rank = draw(st.integers(0, 4))
    tokens = draw(st.lists(NUMBER, min_size=max(rank * rank - 1, 0), max_size=rank * rank + 1))
    head = draw(st.one_of(st.just(str(rank)), NUMBER))
    return "\n".join([head] + tokens) + "\n"


@pytest.fixture(scope="module")
def gram_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "gram.txt"


@FUZZ
@given(st.one_of(gram_texts(), st.text(max_size=60), st.binary(max_size=60)))
def test_read_gram(gram_file, data):
    if isinstance(data, bytes):
        gram_file.write_bytes(data)
    else:
        gram_file.write_text(data, encoding="utf-8")
    parses_or_refuses(cli.read_gram, str(gram_file))


MODULE = fqm.hyperbolic_module(3)


@st.composite
def series_texts(draw):
    header = ["module: %s" % draw(st.sampled_from(["3,3", "3", "4,4", ""])),
              "weight: %s" % draw(NUMBER), "truncation: %s" % draw(NUMBER)]
    records = []
    for _ in range(draw(st.integers(0, 4))):
        coords = ",".join(str(c) for c in draw(st.lists(st.integers(-1, 4), max_size=3)))
        records.append("mu=(%s) m=%s coeff=%s" % (coords, draw(NUMBER), draw(COEFFICIENT)))
    lines = header + records
    if draw(st.booleans()):
        lines = [draw(st.text(max_size=8)) + ln for ln in lines]
    return "\n".join(lines) + "\n"


@FUZZ
@given(st.one_of(series_texts(), st.text(max_size=80)))
def test_read_series(text):
    parses_or_refuses(qs.read_series, text, MODULE)


def value_outcome(parse, text):
    """The refusal message, or the parsed value in its exact representation."""
    try:
        v = parse(text)
    except PreconditionError as exc:
        return str(exc)
    return (v.mod, v.coeffs, v.den) if isinstance(v, CyclotomicNumber) else v


@FUZZ
@given(COEFFICIENT)
def test_parse_value(text):
    assert value_outcome(qs._parse_value, text) == value_outcome(parse_value_reference, text)


@pytest.mark.parametrize("text", [
    "1 * z4^1 + 2 * z6^1 + 1/2",  # moduli mixed with a rational: one sum at lcm 12
    "1/2 * z8^3 + 3 * z3^-1 + -1/4 * z24^5",
    "1 * z4^1 + -1 * z4^1",  # terms that cancel to 0
    "1 * z4^1 + -1 * z8^2 + 2 + -2",
    "0 * z6^1",
    "1 * z4^2 + 1",  # -1 + 1: zero only once reduced
    "2/4 * z4^5 + 1/2 * z4^1",  # one root written twice
    "1 * z%d^1" % qs.ROOT_ORDER_BOUND,
    "1 * z%d^1" % (qs.ROOT_ORDER_BOUND + 1),  # root order above the bound
    "1 * z3^1 + 1 * z%d^1" % (qs.ROOT_ORDER_BOUND + 1),
    "1 * z0^1", "1 * z4", "z4^1", "1 * z4^1 +", "1 * z4^x", "1/0 * z4^1",
])
def test_parse_value_matches_term_by_term_oracle(text):
    assert value_outcome(qs._parse_value, text) == value_outcome(parse_value_reference, text)


def rational_outcome(parse, text):
    """The exception class, or the parsed value."""
    try:
        return parse(text)
    except Exception as exc:  # the class is compared, whatever it is
        return type(exc)


# texts at the edge of the int() route: spaces, signs, zeros, underscores,
# non-ASCII digits, decimals and exponents all take the Fraction(text) route.
# Fraction reads "3 /4" and "1_000/3" from Python 3.12 and 3.11 on, and int()
# refuses 5000 digits from 3.11, so those are compared with the oracle only.
RATIONAL_EDGES = ("3 /4", "1_000/3", "1" * 5000, "1/" + "1" * 5000)
RATIONAL_PINNED = {
    "+3/4": F(3, 4), " 3/4 ": F(3, 4), "03/004": F(3, 4), "-0/5": 0, "1/0": ZeroDivisionError,
    "3/-4": ValueError, "--3/4": ValueError, "/3": ValueError, "3/": ValueError,
    "": ValueError, "-": ValueError, "\u0663/\u0664": F(3, 4), "2.5": F(5, 2), "1e5": 100000,
    "1e99999": ValueError, "7": 7, "-12/8": F(-3, 2),
}


def test_parse_rational_matches_the_fraction_route():
    """parse_rational reads [-]a/b and [-]a with int(); every text gives the
    value, or the exception class, of Fraction(text) with the exponent bound."""
    for text, want in RATIONAL_PINNED.items():
        assert rational_outcome(parse_rational, text) == want, text
        assert rational_outcome(parse_rational_reference, text) == want, text
    for text in RATIONAL_EDGES:
        assert rational_outcome(parse_rational, text) == rational_outcome(
            parse_rational_reference, text), text
    rng = random.Random(20)
    alphabet = "0123456789-+/ ._eE\u0663"
    for _ in range(3000):
        a = rng.randrange(10 ** rng.randint(1, 40))
        b = rng.randrange(10 ** rng.randint(0, 40))
        sign = rng.choice(("", "-"))
        noise = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        for text in ("%s%d/%d" % (sign, a, b), "%s%d" % (sign, a),
                     "%s%0*d/%0*d" % (sign, rng.randint(1, 6), a, rng.randint(1, 6), b), noise):
            got = rational_outcome(parse_rational, text)
            want = rational_outcome(parse_rational_reference, text)
            assert got == want and type(got) is type(want), text


@FUZZ
@given(st.one_of(
    st.lists(st.one_of(st.tuples(NUMBER, NUMBER).map(":".join), NUMBER), max_size=4)
    .map(",".join),
    st.text(max_size=30)))
def test_parse_eta(text):
    parses_or_refuses(cli._parse_eta, text)


ROUNDTRIP_MODULE = fqm.direct_sum(fqm.cyclic_module(2, F(1, 4)), fqm.hyperbolic_module(3))
RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def series(draw):
    f = qs.VectorValuedQSeries(ROUNDTRIP_MODULE, draw(RATIONAL), F(3))
    elements = ROUNDTRIP_MODULE.elements()
    for _ in range(draw(st.integers(0, 12))):
        mu = draw(st.sampled_from(elements))
        m = mu.q() + draw(st.integers(-2, 2))
        if draw(st.booleans()):
            value = draw(RATIONAL)
        else:
            mod = draw(st.sampled_from([1, 3, 4, 8, 12, 24]))
            value = CyclotomicNumber(mod, draw(st.dictionaries(
                st.integers(0, 2 * mod), RATIONAL, min_size=1, max_size=4)))
        f.set(mu, m, value)
    return f


@settings(deadline=None, max_examples=80)
@given(series())
def test_write_read_roundtrip(f):
    back = qs.read_series(qs.write_series(f), ROUNDTRIP_MODULE)
    assert back == f
    assert (back.weight, back.truncation) == (f.weight, f.truncation)
