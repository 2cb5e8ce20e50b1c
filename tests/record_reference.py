"""The document records as frozen dataclasses: the reference that
``tests/test_records.py`` compares the package's tuple records against.

``PlaceDecl`` and ``TransitionDecl`` (``orchnet.document``) and
``LatencySpec`` (``orchnet.specs``) are kept here verbatim as they were
declared before they became ``typing.NamedTuple``s.  The names are the
package's, so that a reference record prints as the package's does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from orchnet.attributes import DATE_INF, ExtendedDate, Value
from orchnet.errors import EvaluationError
from orchnet.specs import GuardSpec, LatencyExpr, ValueFnSpec


@dataclass(frozen=True)
class LatencySpec:
    """A per-transition latency (or per-place initial date) function.

    kind:
      const      -- one date for every omega
      per_omega  -- table indexed by omega
      infinite   -- +inf for every omega (the transition never occurs)
      expr       -- arithmetic over numeric input values (see LatencyExpr)
    """

    kind: str
    const: ExtendedDate | None = None
    table: tuple[ExtendedDate, ...] = field(default=())
    expr: "LatencyExpr | None" = None

    def is_tabular(self) -> bool:
        return self.kind in ("const", "per_omega", "infinite")

    def value_at(self, omega: int) -> ExtendedDate:
        """Tabular lookup; expression specs have no input-free value."""
        if self.kind == "const":
            return self.const
        if self.kind == "infinite":
            return DATE_INF
        if self.kind == "per_omega":
            if not 0 <= omega < len(self.table):
                raise EvaluationError(
                    f"scenario {omega} outside the {len(self.table)}-entry table"
                )
            return self.table[omega]
        raise EvaluationError("expression latency has no input-free value")

    def evaluate(self, omega: int, inputs: tuple[Value, ...]) -> ExtendedDate:
        if self.kind == "expr":
            return self.expr.evaluate(inputs)
        return self.value_at(omega)


@dataclass(frozen=True)
class PlaceDecl:
    id: str
    initial_date: LatencySpec | None = None
    initial_value: Value | None = None


@dataclass(frozen=True)
class TransitionDecl:
    id: str
    pre: tuple[str, ...]
    post: tuple[str, ...]
    latency: LatencySpec
    latency_class: str | None = None
    value_fn: ValueFnSpec | None = None
    guard: GuardSpec | None = None
