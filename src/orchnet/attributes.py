"""Token attributes: exact dates with +infinity, and structured values.

Dates are nonnegative exact rationals extended with +infinity.  Race
outcomes flip on strict comparisons, so no floating point is allowed
anywhere.  A finite date is held as an ``int`` when it is integral and as
a ``fractions.Fraction`` only when it is not, so that the common integral
case compares and adds at integer cost; the race loop in ``timed`` reads
these same numbers.

Values are the payloads carried by tokens: atoms, exact numbers, or tuples
of values.  They only need structural equality, hashing, and a canonical
serialization; no ordering is defined between values of different shapes.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import EvaluationError


@total_ordering
@dataclass(frozen=True)
class ExtendedDate:
    """A nonnegative exact rational or +infinity.

    ``finite`` is None exactly when the date is infinite.  Otherwise it is
    an ``int`` when the date is integral and a ``Fraction`` (with
    denominator above 1) when it is not; construction normalises any
    exact number to that form, so equal dates hold equal ``finite``s.
    Addition is absorbing in infinity; comparison places infinity above
    every finite date and makes it equal only to itself.
    """

    finite: int | Fraction | None

    def __post_init__(self) -> None:
        q = self.finite
        if q is None:
            return
        if type(q) is not int:
            if not isinstance(q, Fraction):
                q = Fraction(q)
            if q.denominator == 1:
                q = q.numerator
            object.__setattr__(self, "finite", q)
        if q < 0:
            raise EvaluationError(f"negative date {q!s} is not allowed")

    @property
    def is_finite(self) -> bool:
        return self.finite is not None

    def __add__(self, other: ExtendedDate) -> ExtendedDate:
        if self.finite is None or other.finite is None:
            return DATE_INF
        return ExtendedDate(self.finite + other.finite)

    def __lt__(self, other: ExtendedDate) -> bool:
        a = self.finite
        if a is None:
            return False
        b = other.finite
        if b is None:
            return True
        if type(a) is int:
            if type(b) is int:
                return a < b
            return a * b.denominator < b.numerator
        # denominators are positive, so cross-multiplying keeps the order
        if type(b) is int:
            return a.numerator < b * a.denominator
        return a.numerator * b.denominator < b.numerator * a.denominator

    def __str__(self) -> str:
        return format_date(self)

    def __repr__(self) -> str:
        return f"ExtendedDate({format_date(self)!r})"


DATE_ZERO = ExtendedDate(0)
DATE_INF = ExtendedDate(None)


def date_of(value: int | str | Fraction) -> ExtendedDate:
    """Coerce a literal into an ExtendedDate (strings go through the parser)."""
    if isinstance(value, ExtendedDate):
        return value
    if isinstance(value, str):
        return parse_date(value)
    return ExtendedDate(value if type(value) is int else Fraction(value))


def date_max(dates) -> ExtendedDate:
    """Max of an iterable of dates; empty input yields 0 by convention."""
    best = DATE_ZERO
    for d in dates:
        if best < d:
            best = d
    return best


_max_str_digits = getattr(sys, "get_int_max_str_digits", int)  # 0 before Python 3.10.7: no limit
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _printable(n: int, limit: int) -> bool:
    """Whether ``str(n)`` stays within ``limit`` digits."""
    # 2**(3 * limit) < 10**limit, so short numbers skip the power
    return n.bit_length() <= 3 * limit or abs(n) < 10**limit


def parse_rational(text: str) -> Fraction:
    """Parse "3", "3.5", "7/2" or "2.5e3" into an exact Fraction.

    A number whose numerator or denominator has more digits than Python
    prints (``sys.get_int_max_str_digits()``) is rejected, and an exponent
    that large is rejected before ``Fraction`` raises 10 to its power.
    """
    text = text.strip()
    if not text:
        raise EvaluationError("empty number")
    limit = _max_str_digits()
    # without an exponent, no part of the value has more digits than the text
    checked = limit and ("e" in text or "E" in text or len(text) > limit)
    try:
        exponent = checked and _EXPONENT.search(text)
        # past this, the value is 0 or has more than ``limit`` digits
        if exponent and abs(int(exponent[1])) > limit + len(text):
            raise ValueError("exponent too large")
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise EvaluationError(f"bad number {text!r}: {exc}") from exc
    if checked and not (_printable(q.numerator, limit) and _printable(q.denominator, limit)):
        raise EvaluationError(f"bad number {text!r}: more than {limit} digits")
    return q


@lru_cache(maxsize=4096)
def parse_date(text: str) -> ExtendedDate:
    """Parse a date string: "inf", a decimal, or "p/q".

    Memoized (dates are immutable; a failed parse is not cached): documents
    repeat a few latency strings thousands of times.
    """
    if text.strip() == "inf":
        return DATE_INF
    return ExtendedDate(parse_rational(text))


def format_rational(q: Fraction) -> str:
    """Exact string form: integer, terminating decimal, or "p/q".

    Raises EvaluationError for a number with more digits than Python
    prints: parsing admits none, but arithmetic can grow one.
    """
    try:
        if q.denominator == 1:
            return str(q.numerator)
        den = q.denominator
        twos = 0
        while den % 2 == 0:
            den //= 2
            twos += 1
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den != 1:
            return f"{q.numerator}/{q.denominator}"
        digits = max(twos, fives)
        scaled = q.numerator * 10**digits // q.denominator
        sign = "-" if scaled < 0 else ""
        scaled = abs(scaled)
        whole, frac = divmod(scaled, 10**digits)
        return f"{sign}{whole}.{str(frac).rjust(digits, '0')}"
    except ValueError as exc:
        raise EvaluationError(f"number too large to print: {exc}") from exc


def format_date(d: ExtendedDate) -> str:
    if d.finite is None:
        return "inf"
    return format_rational(d.finite)


@dataclass(frozen=True)
class Value:
    """A token value: an atom, an exact number, or a tuple of values."""

    kind: str  # "atom" | "num" | "tuple"
    atom: str | None = None
    num: Fraction | None = None
    items: tuple["Value", ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in ("atom", "num", "tuple"):
            raise EvaluationError(f"unknown value kind {self.kind!r}")
        if self.kind == "num" and self.num is not None and not isinstance(self.num, Fraction):
            object.__setattr__(self, "num", Fraction(self.num))

    def __str__(self) -> str:
        if self.kind == "atom":
            return str(self.atom)
        if self.kind == "num":
            return format_rational(self.num)
        return "(" + ", ".join(str(v) for v in self.items) + ")"


def atom(name: str) -> Value:
    return Value(kind="atom", atom=name)


def num(value: int | str | Fraction) -> Value:
    if isinstance(value, str):
        value = parse_rational(value)
    return Value(kind="num", num=Fraction(value))


def tup(*items: Value) -> Value:
    return Value(kind="tuple", items=tuple(items))


def value_to_json(v: Value) -> object:
    if v.kind == "atom":
        return {"kind": "atom", "value": v.atom}
    if v.kind == "num":
        return {"kind": "num", "value": format_rational(v.num)}
    return {"kind": "tuple", "items": [value_to_json(i) for i in v.items]}


def value_from_json(node: object, path: str, problems: list[str]) -> Value | None:
    """Parse a value literal, appending schema problems instead of raising."""
    if not isinstance(node, dict) or "kind" not in node:
        problems.append(f"{path}: value must be an object with a 'kind'")
        return None
    kind = node["kind"]
    if kind == "atom":
        name = node.get("value")
        if not isinstance(name, str):
            problems.append(f"{path}.value: atom value must be a string")
            return None
        return atom(name)
    if kind == "num":
        raw = node.get("value")
        if not isinstance(raw, str):
            problems.append(f"{path}.value: number must be a decimal string")
            return None
        try:
            return num(raw)
        except EvaluationError as exc:
            problems.append(f"{path}.value: {exc}")
            return None
    if kind == "tuple":
        items = node.get("items")
        if not isinstance(items, list):
            problems.append(f"{path}.items: tuple items must be a list")
            return None
        parsed = []
        for i, raw in enumerate(items):
            item = value_from_json(raw, f"{path}.items[{i}]", problems)
            if item is None:
                return None
            parsed.append(item)
        return Value(kind="tuple", items=tuple(parsed))
    problems.append(f"{path}.kind: unknown value kind {kind!r}")
    return None


def value_sort_key(v: Value) -> str:
    """Deterministic ordering key for reporting sets of values."""
    import json as _json

    return _json.dumps(value_to_json(v), sort_keys=True)
