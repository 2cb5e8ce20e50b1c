"""``ExtendedDate`` as it was when every finite date was a ``Fraction``,
kept as the reference that ``orchnet.attributes`` is compared against.

Here ``finite`` is always a ``fractions.Fraction`` (or None for infinity),
and every comparison and sum goes through ``Fraction``'s own operators.
The date type and the date functions over it are verbatim copies; only the
imports changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering

from orchnet.attributes import format_rational, parse_rational
from orchnet.errors import EvaluationError


@total_ordering
@dataclass(frozen=True)
class ExtendedDate:
    """A nonnegative exact rational or +infinity.

    ``finite`` is None exactly when the date is infinite.  Addition is
    absorbing in infinity; comparison places infinity above every finite
    date and makes it equal only to itself.
    """

    finite: Fraction | None

    def __post_init__(self) -> None:
        if self.finite is not None:
            if not isinstance(self.finite, Fraction):
                object.__setattr__(self, "finite", Fraction(self.finite))
            if self.finite < 0:
                raise EvaluationError(f"negative date {self.finite!s} is not allowed")

    @property
    def is_finite(self) -> bool:
        return self.finite is not None

    def __add__(self, other: ExtendedDate) -> ExtendedDate:
        if self.finite is None or other.finite is None:
            return DATE_INF
        return ExtendedDate(self.finite + other.finite)

    def __lt__(self, other: ExtendedDate) -> bool:
        if self.finite is None:
            return False
        if other.finite is None:
            return True
        return self.finite < other.finite

    def __str__(self) -> str:
        return format_date(self)

    def __repr__(self) -> str:
        return f"ExtendedDate({format_date(self)!r})"


DATE_ZERO = ExtendedDate(Fraction(0))
DATE_INF = ExtendedDate(None)


def date_of(value: int | str | Fraction) -> ExtendedDate:
    """Coerce a literal into an ExtendedDate (strings go through the parser)."""
    if isinstance(value, ExtendedDate):
        return value
    if isinstance(value, str):
        return parse_date(value)
    return ExtendedDate(Fraction(value))


def date_max(dates) -> ExtendedDate:
    """Max of an iterable of dates; empty input yields 0 by convention."""
    best = DATE_ZERO
    for d in dates:
        if best < d:
            best = d
    return best


@lru_cache(maxsize=4096)
def parse_date(text: str) -> ExtendedDate:
    """Parse a date string: "inf", a decimal, or "p/q".

    Memoized (dates are immutable; a failed parse is not cached): documents
    repeat a few latency strings thousands of times.
    """
    if text.strip() == "inf":
        return DATE_INF
    return ExtendedDate(parse_rational(text))


def format_date(d: ExtendedDate) -> str:
    if d.finite is None:
        return "inf"
    return format_rational(d.finite)
