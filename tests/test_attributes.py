"""Dates with infinity, exact rationals, and token values."""

from fractions import Fraction

import pytest

from orchnet.attributes import (
    DATE_INF,
    DATE_ZERO,
    ExtendedDate,
    atom,
    date_max,
    date_of,
    format_date,
    format_rational,
    num,
    parse_date,
    parse_rational,
    tup,
    value_from_json,
    value_sort_key,
    value_to_json,
)
from orchnet.errors import EvaluationError


def test_dates_are_totally_ordered_with_infinity_on_top():
    d = [date_of(0), date_of("3/2"), date_of(2), DATE_INF]
    for i, lo in enumerate(d):
        for hi in d[i + 1 :]:
            assert lo < hi
            assert hi > lo
    assert DATE_INF == DATE_INF
    assert not DATE_INF < DATE_INF


def test_addition_is_absorbing_at_infinity():
    assert date_of(2) + date_of("1/2") == date_of("5/2")
    assert DATE_INF + date_of(7) == DATE_INF
    assert date_of(7) + DATE_INF == DATE_INF
    assert DATE_INF + DATE_INF == DATE_INF


def test_negative_dates_are_rejected():
    with pytest.raises(EvaluationError):
        ExtendedDate(Fraction(-1))


def test_date_max_of_empty_is_zero():
    assert date_max([]) == DATE_ZERO
    assert date_max([date_of(3), DATE_INF, date_of(1)]) == DATE_INF


def test_rational_parsing_and_exact_formatting():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("3.25") == Fraction(13, 4)
    assert parse_rational("7/2") == Fraction(7, 2)
    assert format_rational(Fraction(3)) == "3"
    # terminating decimals print as decimals, others as fractions
    assert format_rational(Fraction(1, 2)) == "0.5"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_date(DATE_INF) == "inf"
    with pytest.raises(EvaluationError):
        parse_rational("not-a-number")


def test_a_number_must_stay_printable():
    # 4,300 digits is the default limit of Python's int-to-str conversion
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("1e-4299") == Fraction(1, 10**4299)
    for text, problem in (
        ("1e4300", "more than 4300 digits"),
        ("1e-4300", "more than 4300 digits"),
        ("1e5000", "exponent too large"),
    ):
        with pytest.raises(EvaluationError, match=f"bad number '{text}': {problem}"):
            parse_rational(text)


def test_date_format_round_trip():
    for text in ("0", "1", "42", "0.125", "7/3", "inf"):
        assert format_date(parse_date(text)) == text


def test_parse_date_is_memoized_but_failures_are_not():
    assert parse_date("3/2") is parse_date("3/2")
    messages = []
    for _ in range(2):
        with pytest.raises(EvaluationError) as caught:
            parse_date("not-a-date")
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == "bad number 'not-a-date': Invalid literal for Fraction: 'not-a-date'"


def test_value_constructors_and_json_round_trip():
    v = tup(atom("svc"), num("3/2"), tup(num(1)))
    node = value_to_json(v)
    problems: list[str] = []
    back = value_from_json(node, "x", problems)
    assert problems == []
    assert back == v


def test_value_json_reports_problems_with_paths():
    problems: list[str] = []
    assert value_from_json({"kind": "nope"}, "root", problems) is None
    assert any(p.startswith("root") for p in problems)


def test_value_sort_key_is_deterministic_and_injective_enough():
    values = [atom("a"), atom("b"), num(1), num("1/2"), tup(atom("a"), num(1))]
    keys = [value_sort_key(v) for v in values]
    assert len(set(keys)) == len(values)
    assert keys == [value_sort_key(v) for v in values]
