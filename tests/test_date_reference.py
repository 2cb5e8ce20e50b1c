"""``ExtendedDate`` against its all-Fraction reference (``date_reference``).

A finite date is now an ``int`` when it is integral and a ``Fraction``
otherwise, and compares by cross-multiplying.  Every operation must give
what the reference gives, and no stored date may be a ``Fraction`` with
denominator 1.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from orchnet import attributes as new
from orchnet.attributes import num
from orchnet.errors import EvaluationError
from orchnet.specs import LatencyExpr

from . import date_reference as ref

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

ints = st.one_of(st.integers(-5, 20), st.integers(min_value=-50, max_value=10**30))
# small terms, so that two draws often lie close together, and large ones
fractions = st.one_of(
    st.builds(Fraction, st.integers(-5, 100), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-50, 10**12), st.integers(1, 60)),
)
# None stands for infinity; a negative number must be rejected
raw = st.one_of(st.none(), ints, fractions)
exact = st.one_of(ints, fractions)
nonnegative = st.one_of(st.none(), ints.filter(lambda q: q >= 0), fractions.filter(lambda q: q >= 0))


def check_stored(d: new.ExtendedDate) -> None:
    q = d.finite
    assert q is None or type(q) is int or (type(q) is Fraction and q.denominator > 1), repr(q)


def both(x):
    """The date ``x`` as each type, or the message each raises for it."""
    out = []
    for module in (new, ref):
        try:
            out.append(module.ExtendedDate(x))
        except EvaluationError as exc:
            out.append(str(exc))
    return out


def same(a: new.ExtendedDate, b: ref.ExtendedDate) -> bool:
    check_stored(a)
    return a.finite == b.finite and str(a) == str(b) and repr(a) == repr(b)


@SETTINGS
@given(raw)
def test_construction_matches_the_reference(x):
    a, b = both(x)
    if isinstance(b, str):
        assert a == b  # the negative-date message
        assert b.startswith("negative date")
    else:
        assert same(a, b)
        assert hash(a) == hash(b)
        assert new.format_date(a) == ref.format_date(b)


@SETTINGS
@given(nonnegative, nonnegative)
def test_order_equality_and_sum_match_the_reference(x, y):
    a, b = new.ExtendedDate(x), new.ExtendedDate(y)
    ra, rb = ref.ExtendedDate(x), ref.ExtendedDate(y)
    assert (a < b, a <= b, a == b, a != b, a > b, a >= b) == (
        ra < rb, ra <= rb, ra == rb, ra != rb, ra > rb, ra >= rb
    )
    assert hash(a) == hash(b) or a != b
    assert same(a + b, ra + rb)


@SETTINGS
@given(st.lists(nonnegative, max_size=6))
def test_date_max_matches_the_reference(xs):
    assert same(
        new.date_max(map(new.ExtendedDate, xs)), ref.date_max(map(ref.ExtendedDate, xs))
    )


@SETTINGS
@given(exact)
def test_date_of_matches_the_reference(x):
    for literal in (x, str(x), float(x) if type(x) is int and abs(x) < 2**50 else x):
        outcomes = []
        for module in (new, ref):
            try:
                outcomes.append(module.date_of(literal))
            except EvaluationError as exc:
                outcomes.append(str(exc))
        a, b = outcomes
        assert a == b if isinstance(b, str) else same(a, b)


@SETTINGS
@given(
    st.one_of(
        exact.map(str),
        fractions.filter(lambda q: q >= 0).map(new.format_rational),
        st.sampled_from(["inf", " inf ", "0", "3.50", "6/2", "-1", "1/0", "x", "", "2.0"]),
    )
)
def test_parse_date_matches_the_reference(text):
    outcomes = []
    for module in (new, ref):
        try:
            outcomes.append(module.parse_date(text))
        except EvaluationError as exc:
            outcomes.append(str(exc))
    a, b = outcomes
    assert a == b if isinstance(b, str) else same(a, b)


def test_integral_results_are_ints():
    assert type(new.ExtendedDate(Fraction(6, 2)).finite) is int
    assert type(new.date_of(Fraction(6, 2)).finite) is int
    assert type(new.parse_date("3.0").finite) is int
    assert type((new.date_of("7/2") + new.date_of("1/2")).finite) is int
    assert new.DATE_ZERO.finite == 0 and type(new.DATE_ZERO.finite) is int
    three_halves = LatencyExpr(op="const", const=new.date_of("3/2"))
    product = LatencyExpr(op="mul", args=(three_halves, LatencyExpr(op="input", index=0)))
    assert product.evaluate((num(2),)) == new.date_of(3)
    assert type(product.evaluate((num(2),)).finite) is int
    assert type(product.evaluate((num(1),)).finite) is Fraction

