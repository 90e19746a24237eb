"""Property tests for the text parsers: every input parses or is refused cleanly.

A parser may return a value or raise PreconditionError (exit code 2 on the
command line); any other exception, or a run that does not end, is a fault.
The round trip writes random series with rational and multi-term cyclotomic
coefficients and reads them back. The coefficient parser must agree with the
term-by-term oracle of tests/helpers.py on every text.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from discforms import cli, fqm, qseries as qs
from discforms._intmat import DECIMAL_EXPONENT_BOUND
from discforms.cyclo import CyclotomicNumber
from discforms.errors import PreconditionError
from helpers import parse_value_reference

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
