"""Declarative specs for latency functions, value functions, and guards.

These are the finite, serializable representations of the functions attached
to transitions.  Nondeterminism is resolved by a daemon index ``omega`` drawn
from ``range(omega_count)``; a per-omega table gives one entry per index.

Latency expressions form a deliberately small closed grammar (constants,
numeric inputs, add/mul/max/min); inputs refer to the values on the preset
tokens, ordered by sorted preset place id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .attributes import (
    DATE_INF,
    ExtendedDate,
    Value,
    date_of,
    format_date,
    parse_date,
    value_from_json,
    value_to_json,
)
from .errors import EvaluationError


# ---------------------------------------------------------------------------
# Latency specs


class LatencySpec(NamedTuple):
    """A per-transition latency (or per-place initial date) function.

    kind:
      const      -- one date for every omega
      per_omega  -- table indexed by omega
      infinite   -- +inf for every omega (the transition never occurs)
      expr       -- arithmetic over numeric input values (see LatencyExpr)

    A tuple, built once per declared table: equality, hash and ``repr`` are
    those of a frozen dataclass with these fields, and ``_replace`` makes a
    changed copy.
    """

    kind: str
    const: ExtendedDate | None = None
    table: tuple[ExtendedDate, ...] = ()
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
class LatencyExpr:
    """Node of the closed latency-expression grammar."""

    op: str  # "const" | "input" | "add" | "mul" | "max" | "min"
    const: ExtendedDate | None = None
    index: int | None = None
    args: tuple["LatencyExpr", ...] = field(default=())

    def evaluate(self, inputs: tuple[Value, ...]) -> ExtendedDate:
        if self.op == "const":
            return self.const
        if self.op == "input":
            if not 0 <= self.index < len(inputs):
                raise EvaluationError(f"latency input index {self.index} out of range")
            v = inputs[self.index]
            if v.kind != "num":
                raise EvaluationError(f"latency input {self.index} is not numeric: {v}")
            return date_of(v.num)
        results = [a.evaluate(inputs) for a in self.args]
        if not results:
            raise EvaluationError(f"latency op {self.op!r} needs arguments")
        if self.op == "add":
            acc = results[0]
            for r in results[1:]:
                acc = acc + r
            return acc
        if self.op == "max":
            acc = results[0]
            for r in results[1:]:
                if acc < r:
                    acc = r
            return acc
        if self.op == "min":
            acc = results[0]
            for r in results[1:]:
                if r < acc:
                    acc = r
            return acc
        if self.op == "mul":
            if any(not r.is_finite for r in results):
                return DATE_INF
            acc = results[0].finite
            for r in results[1:]:
                acc = acc * r.finite
            return date_of(acc)
        raise EvaluationError(f"unknown latency op {self.op!r}")


INFINITE_LATENCY = LatencySpec(kind="infinite")


def const_latency(value) -> LatencySpec:
    """A constant latency; an infinite date gives ``INFINITE_LATENCY``."""
    d = date_of(value)
    return LatencySpec(kind="const", const=d) if d.is_finite else INFINITE_LATENCY


def per_omega_latency(values) -> LatencySpec:
    return LatencySpec(kind="per_omega", table=tuple(date_of(v) for v in values))


# ---------------------------------------------------------------------------
# Value-function specs


@dataclass(frozen=True)
class ValueFnSpec:
    """How a transition combines its input values into its output value.

    kind:
      const            -- fixed value
      select           -- copy the i-th input
      tuple_of_inputs  -- tuple of all inputs in order
      sum / max        -- numeric fold over all inputs
      per_omega        -- fixed value chosen by omega
    """

    kind: str
    const: Value | None = None
    index: int | None = None
    table: tuple[Value, ...] = field(default=())

    def evaluate(self, omega: int, inputs: tuple[Value, ...]) -> Value:
        if self.kind == "const":
            return self.const
        if self.kind == "per_omega":
            if not 0 <= omega < len(self.table):
                raise EvaluationError(
                    f"scenario {omega} outside the {len(self.table)}-entry table"
                )
            return self.table[omega]
        if self.kind == "select":
            if not 0 <= self.index < len(inputs):
                raise EvaluationError(f"select index {self.index} out of range")
            return inputs[self.index]
        if self.kind == "tuple_of_inputs":
            return Value(kind="tuple", items=tuple(inputs))
        if self.kind in ("sum", "max"):
            nums = []
            for v in inputs:
                if v.kind != "num":
                    raise EvaluationError(f"{self.kind} needs numeric inputs, got {v}")
                nums.append(v.num)
            if not nums:
                raise EvaluationError(f"{self.kind} needs at least one input")
            folded = sum(nums) if self.kind == "sum" else max(nums)
            return Value(kind="num", num=folded)
        raise EvaluationError(f"unknown value-fn kind {self.kind!r}")


def const_value_fn(v: Value) -> ValueFnSpec:
    return ValueFnSpec(kind="const", const=v)


# ---------------------------------------------------------------------------
# Guards


@dataclass(frozen=True)
class GuardOperand:
    kind: str  # "select" | "const"
    index: int | None = None
    const: Value | None = None

    def evaluate(self, inputs: tuple[Value, ...]) -> Value:
        if self.kind == "const":
            return self.const
        if not 0 <= self.index < len(inputs):
            raise EvaluationError(f"guard select index {self.index} out of range")
        return inputs[self.index]


@dataclass(frozen=True)
class GuardSpec:
    """Boolean comparison over token values; a false guard stalls the transition."""

    op: str  # "eq" | "lt" | "leq"
    left: GuardOperand
    right: GuardOperand

    def evaluate(self, inputs: tuple[Value, ...]) -> bool:
        lhs = self.left.evaluate(inputs)
        rhs = self.right.evaluate(inputs)
        if self.op == "eq":
            return lhs == rhs
        if lhs.kind != "num" or rhs.kind != "num":
            raise EvaluationError(f"guard {self.op} needs numeric operands, got {lhs} and {rhs}")
        if self.op == "lt":
            return lhs.num < rhs.num
        if self.op == "leq":
            return lhs.num <= rhs.num
        raise EvaluationError(f"unknown guard op {self.op!r}")


# ---------------------------------------------------------------------------
# JSON forms.  Parsers collect problems (with document paths) instead of
# raising so a document's errors can be reported all at once.


def latency_to_json(spec: LatencySpec) -> object:
    if spec.kind == "const":
        return {"kind": "const", "value": format_date(spec.const)}
    if spec.kind == "per_omega":
        return {"kind": "per_omega", "values": [format_date(d) for d in spec.table]}
    if spec.kind == "infinite":
        return {"kind": "infinite"}
    return {"kind": "expr", "expr": _expr_to_json(spec.expr)}


def _expr_to_json(e: LatencyExpr) -> object:
    if e.op == "const":
        return {"op": "const", "value": format_date(e.const)}
    if e.op == "input":
        return {"op": "input", "index": e.index}
    return {"op": e.op, "args": [_expr_to_json(a) for a in e.args]}


def latency_from_json(node: object, omega_count: int, path: str, problems: list[str]) -> LatencySpec | None:
    if not isinstance(node, dict) or "kind" not in node:
        problems.append(f"{path}: latency must be an object with a 'kind'")
        return None
    kind = node["kind"]
    if kind == "const":
        return _parse_const_latency(node.get("value"), path, problems)
    if kind == "infinite":
        return INFINITE_LATENCY
    if kind == "per_omega":
        values = node.get("values")
        if not isinstance(values, list) or len(values) != omega_count:
            problems.append(f"{path}.values: per_omega table must list {omega_count} entries")
            return None
        try:
            table = tuple(map(parse_date, values))
        except _NOT_A_DATE:
            # one at a time, for the message on the first value that fails
            for i, raw in enumerate(values):
                if _parse_date_str(raw, f"{path}.values[{i}]", problems) is None:
                    return None
            raise
        return LatencySpec("per_omega", None, table)
    if kind == "expr":
        expr = _expr_from_json(node.get("expr"), f"{path}.expr", problems)
        if expr is None:
            return None
        return LatencySpec(kind="expr", expr=expr)
    problems.append(f"{path}.kind: unknown latency kind {kind!r}")
    return None


def _parse_const_latency(raw: object, path: str, problems: list[str]) -> LatencySpec | None:
    d = _parse_date_str(raw, f"{path}.value", problems)
    return None if d is None else const_latency(d)


# What ``parse_date`` raises on a string that is not a date, and on a value
# that is not a string (it has no ``strip``, or is unhashable).
_NOT_A_DATE = (EvaluationError, AttributeError, TypeError)


def _parse_date_str(raw: object, path: str, problems: list[str]) -> ExtendedDate | None:
    if not isinstance(raw, str):
        problems.append(f"{path}: dates are decimal strings (or 'inf')")
        return None
    try:
        return date_of(raw)
    except EvaluationError as exc:
        problems.append(f"{path}: {exc}")
        return None


def _expr_from_json(node: object, path: str, problems: list[str]) -> LatencyExpr | None:
    if not isinstance(node, dict) or "op" not in node:
        problems.append(f"{path}: expression must be an object with an 'op'")
        return None
    op = node["op"]
    if op == "const":
        d = _parse_date_str(node.get("value"), f"{path}.value", problems)
        if d is None:
            return None
        return LatencyExpr(op="const", const=d)
    if op == "input":
        idx = node.get("index")
        if type(idx) is not int or idx < 0:
            problems.append(f"{path}.index: input index must be a nonnegative integer")
            return None
        return LatencyExpr(op="input", index=idx)
    if op in ("add", "mul", "max", "min"):
        args_raw = node.get("args")
        if not isinstance(args_raw, list) or not args_raw:
            problems.append(f"{path}.args: {op} needs a nonempty argument list")
            return None
        args = []
        for i, raw in enumerate(args_raw):
            a = _expr_from_json(raw, f"{path}.args[{i}]", problems)
            if a is None:
                return None
            args.append(a)
        return LatencyExpr(op=op, args=tuple(args))
    problems.append(f"{path}.op: unknown expression op {op!r}")
    return None


def value_fn_to_json(spec: ValueFnSpec) -> object:
    if spec.kind == "const":
        return {"kind": "const", "value": value_to_json(spec.const)}
    if spec.kind == "select":
        return {"kind": "select", "index": spec.index}
    if spec.kind == "per_omega":
        return {"kind": "per_omega", "values": [value_to_json(v) for v in spec.table]}
    return {"kind": spec.kind}


def value_fn_from_json(node: object, omega_count: int, path: str, problems: list[str]) -> ValueFnSpec | None:
    if not isinstance(node, dict) or "kind" not in node:
        problems.append(f"{path}: value_fn must be an object with a 'kind'")
        return None
    kind = node["kind"]
    if kind == "const":
        v = value_from_json(node.get("value"), f"{path}.value", problems)
        if v is None:
            return None
        return ValueFnSpec(kind="const", const=v)
    if kind == "select":
        idx = node.get("index")
        if type(idx) is not int or idx < 0:
            problems.append(f"{path}.index: select index must be a nonnegative integer")
            return None
        return ValueFnSpec(kind="select", index=idx)
    if kind in ("tuple_of_inputs", "sum", "max"):
        return ValueFnSpec(kind=kind)
    if kind == "per_omega":
        values = node.get("values")
        if not isinstance(values, list) or len(values) != omega_count:
            problems.append(f"{path}.values: per_omega table must list {omega_count} entries")
            return None
        table = []
        for i, raw in enumerate(values):
            v = value_from_json(raw, f"{path}.values[{i}]", problems)
            if v is None:
                return None
            table.append(v)
        return ValueFnSpec(kind="per_omega", table=tuple(table))
    problems.append(f"{path}.kind: unknown value_fn kind {kind!r}")
    return None


def guard_to_json(g: GuardSpec) -> object:
    return {
        "op": g.op,
        "left": _operand_to_json(g.left),
        "right": _operand_to_json(g.right),
    }


def _operand_to_json(o: GuardOperand) -> object:
    if o.kind == "select":
        return {"kind": "select", "index": o.index}
    return {"kind": "const", "value": value_to_json(o.const)}


def guard_from_json(node: object, path: str, problems: list[str]) -> GuardSpec | None:
    if not isinstance(node, dict) or node.get("op") not in ("eq", "lt", "leq"):
        problems.append(f"{path}: guard must be an object with op eq|lt|leq")
        return None
    left = _operand_from_json(node.get("left"), f"{path}.left", problems)
    right = _operand_from_json(node.get("right"), f"{path}.right", problems)
    if left is None or right is None:
        return None
    return GuardSpec(op=node["op"], left=left, right=right)


def _operand_from_json(node: object, path: str, problems: list[str]) -> GuardOperand | None:
    if not isinstance(node, dict) or "kind" not in node:
        problems.append(f"{path}: operand must be an object with a 'kind'")
        return None
    if node["kind"] == "select":
        idx = node.get("index")
        if type(idx) is not int or idx < 0:
            problems.append(f"{path}.index: select index must be a nonnegative integer")
            return None
        return GuardOperand(kind="select", index=idx)
    if node["kind"] == "const":
        v = value_from_json(node.get("value"), f"{path}.value", problems)
        if v is None:
            return None
        return GuardOperand(kind="const", const=v)
    problems.append(f"{path}.kind: unknown operand kind {node['kind']!r}")
    return None
