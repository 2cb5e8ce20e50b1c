"""Latency, value-function, and guard specs: evaluation and JSON forms."""

import pytest

from orchnet.attributes import DATE_INF, atom, date_of, num, tup
from orchnet.errors import EvaluationError
from orchnet.specs import (
    INFINITE_LATENCY,
    GuardOperand,
    GuardSpec,
    LatencyExpr,
    LatencySpec,
    ValueFnSpec,
    const_latency,
    const_value_fn,
    guard_from_json,
    guard_to_json,
    latency_from_json,
    latency_to_json,
    per_omega_latency,
    value_fn_from_json,
    value_fn_to_json,
)


def test_const_and_per_omega_latencies():
    c = const_latency("3/2")
    assert c.evaluate(0, ()) == date_of("3/2")
    assert c.evaluate(5, ()) == date_of("3/2")
    p = per_omega_latency(["1", "4"])
    assert p.evaluate(0, ()) == date_of(1)
    assert p.evaluate(1, ()) == date_of(4)
    with pytest.raises(EvaluationError):
        p.evaluate(2, ())


def test_const_latency_of_an_infinite_date_is_the_infinite_spec():
    assert const_latency(DATE_INF) == INFINITE_LATENCY
    assert const_latency("inf") == INFINITE_LATENCY
    assert const_latency(0).kind == "const"
    problems = []
    assert latency_from_json({"kind": "const", "value": "inf"}, 1, "l", problems) == INFINITE_LATENCY
    assert not problems


def test_expression_latency_reads_numeric_inputs():
    # max(input0, 2) + 1
    expr = LatencyExpr(
        op="add",
        args=(
            LatencyExpr(op="max", args=(
                LatencyExpr(op="input", index=0),
                LatencyExpr(op="const", const=date_of(2)),
            )),
            LatencyExpr(op="const", const=date_of(1)),
        ),
    )
    spec = LatencySpec(kind="expr", expr=expr)
    assert spec.evaluate(0, (num(5),)) == date_of(6)
    assert spec.evaluate(0, (num(0),)) == date_of(3)
    with pytest.raises(EvaluationError):
        spec.evaluate(0, (atom("not-numeric"),))


def test_infinite_latency():
    inf = LatencySpec(kind="infinite")
    assert inf.evaluate(0, ()) == DATE_INF
    assert not inf.is_tabular() or inf.value_at(0) == DATE_INF


def test_value_fns():
    inputs = (atom("x"), num(2))
    assert const_value_fn(atom("k")).evaluate(0, inputs) == atom("k")
    assert ValueFnSpec(kind="select", index=1).evaluate(0, inputs) == num(2)
    assert ValueFnSpec(kind="tuple_of_inputs").evaluate(0, inputs) == tup(*inputs)
    assert ValueFnSpec(kind="sum").evaluate(0, (num(1), num("1/2"))) == num("3/2")
    assert ValueFnSpec(kind="max").evaluate(0, (num(1), num(7))) == num(7)
    with pytest.raises(EvaluationError):
        ValueFnSpec(kind="select", index=5).evaluate(0, inputs)
    with pytest.raises(EvaluationError):
        ValueFnSpec(kind="sum").evaluate(0, (atom("a"),))


def test_guards_compare_values():
    g_eq = GuardSpec(
        op="eq",
        left=GuardOperand(kind="select", index=0),
        right=GuardOperand(kind="const", const=atom("ok")),
    )
    assert g_eq.evaluate((atom("ok"),))
    assert not g_eq.evaluate((atom("nope"),))
    g_lt = GuardSpec(
        op="lt",
        left=GuardOperand(kind="select", index=0),
        right=GuardOperand(kind="const", const=num(3)),
    )
    assert g_lt.evaluate((num(2),))
    assert not g_lt.evaluate((num(3),))
    with pytest.raises(EvaluationError):
        g_lt.evaluate((atom("not-numeric"),))


@pytest.mark.parametrize(
    "spec",
    [
        const_latency("2"),
        per_omega_latency(["0", "3/2", "inf"]),
        LatencySpec(kind="infinite"),
        LatencySpec(
            kind="expr",
            expr=LatencyExpr(op="add", args=(
                LatencyExpr(op="input", index=0),
                LatencyExpr(op="const", const=date_of("1/4")),
            )),
        ),
    ],
)
def test_latency_json_round_trip(spec):
    node = latency_to_json(spec)
    problems: list[str] = []
    back = latency_from_json(node, 3, "t", problems)
    assert problems == []
    assert back == spec


@pytest.mark.parametrize(
    "spec",
    [
        const_value_fn(tup(atom("a"), num(1))),
        ValueFnSpec(kind="select", index=2),
        ValueFnSpec(kind="tuple_of_inputs"),
        ValueFnSpec(kind="sum"),
        ValueFnSpec(kind="per_omega", table=(atom("x"), atom("y"))),
    ],
)
def test_value_fn_json_round_trip(spec):
    node = value_fn_to_json(spec)
    problems: list[str] = []
    back = value_fn_from_json(node, 2, "t", problems)
    assert problems == []
    assert back == spec


def test_guard_json_round_trip():
    g = GuardSpec(
        op="leq",
        left=GuardOperand(kind="select", index=1),
        right=GuardOperand(kind="const", const=num("5/2")),
    )
    problems: list[str] = []
    assert guard_from_json(guard_to_json(g), "t", problems) == g
    assert problems == []


def test_parsers_collect_problems_instead_of_raising():
    problems: list[str] = []
    assert latency_from_json({"kind": "per_omega", "values": ["1"]}, 2, "lat", problems) is None
    assert latency_from_json({"kind": "mystery"}, 2, "lat", problems) is None
    assert value_fn_from_json({"kind": "select", "index": -1}, 1, "vf", problems) is None
    assert guard_from_json({"op": "xor"}, "g", problems) is None
    assert len(problems) == 4
    assert all(p.split(":")[0].startswith(("lat", "vf", "g")) for p in problems)
