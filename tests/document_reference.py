"""The document parser as it stood before its fast path: the reference
that ``tests/test_document_reference.py`` compares ``document_from_json``
against.

The parse functions of ``orchnet.document`` and the latency parsers of
``orchnet.specs`` are kept here unchanged, so that every ``NetDocument``
and every problem list, messages and order included, can be checked
against the code they replaced.  Value functions, guards and value
literals are parsed by the package's own functions, which the fast path
did not change.
"""

from __future__ import annotations

from orchnet.attributes import ExtendedDate, date_of, parse_date, value_from_json
from orchnet.document import FORMAT_VERSION, NetDocument, PlaceDecl, TransitionDecl
from orchnet.errors import DocumentError, EvaluationError
from orchnet.specs import (
    INFINITE_LATENCY,
    LatencyExpr,
    LatencySpec,
    ValueFnSpec,
    const_latency,
    guard_from_json,
    value_fn_from_json,
)

# ---------------------------------------------------------------------------
# orchnet.document


def document_from_json(obj: object) -> NetDocument:
    problems: list[str] = []
    if not isinstance(obj, dict):
        raise DocumentError(["document must be a JSON object"])

    version = obj.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        problems.append(f"format_version: expected {FORMAT_VERSION}, got {version!r}")

    kind = obj.get("kind")
    if kind not in ("occurrence", "workflow"):
        problems.append(f"kind: expected 'occurrence' or 'workflow', got {kind!r}")
        kind = "occurrence"

    omega_count = obj.get("omega_count", 1)
    if type(omega_count) is not int or omega_count < 1:
        problems.append(f"omega_count: expected a positive integer, got {omega_count!r}")
        omega_count = 1

    known = {
        "format_version", "kind", "omega_count", "places", "transitions",
        "grids", "place_grids", "flags",
    }
    for key in sorted(set(obj) - known):
        problems.append(f"unknown top-level key {key!r}")

    places = _parse_places(obj.get("places"), omega_count, problems)
    transitions = _parse_transitions(obj.get("transitions"), omega_count, problems)
    class_grids = _parse_grid(obj.get("grids", {}), "grids", problems)
    place_grids = _parse_grid(obj.get("place_grids", {}), "place_grids", problems)

    flags = obj.get("flags", {})
    upward_closed = False
    if not isinstance(flags, dict):
        problems.append("flags: expected an object")
    else:
        upward_closed = flags.get("upward_closed", False)
        if not isinstance(upward_closed, bool):
            problems.append("flags.upward_closed: expected a boolean")
            upward_closed = False
        for key in sorted(set(flags) - {"upward_closed"}):
            problems.append(f"flags: unknown key {key!r}")

    doc = NetDocument(
        kind=kind,
        omega_count=omega_count,
        places=places,
        transitions=transitions,
        class_grids=class_grids,
        place_grids=place_grids,
        upward_closed=upward_closed,
    )
    problems.extend(_cross_checks(doc))
    if problems:
        raise DocumentError(problems)
    return doc


def _parse_places(node: object, omega_count: int, problems: list[str]) -> tuple[PlaceDecl, ...]:
    if not isinstance(node, list):
        problems.append("places: expected a list")
        return ()
    out = []
    seen = set()
    for i, raw in enumerate(node):
        path = f"places[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{path}: expected an object")
            continue
        pid = raw.get("id")
        if not isinstance(pid, str) or not pid:
            problems.append(f"{path}.id: expected a non-empty string")
            continue
        if pid in seen:
            problems.append(f"{path}.id: duplicate place {pid!r}")
            continue
        seen.add(pid)
        initial_date = None
        if "initial_date" in raw:
            initial_date = latency_from_json(
                raw["initial_date"], omega_count, f"{path}.initial_date", problems
            )
            if initial_date is not None and initial_date.kind == "expr":
                problems.append(
                    f"{path}.initial_date.kind: an initial date cannot be an expression "
                    "(it has no inputs)"
                )
        initial_value = None
        if "initial_value" in raw:
            initial_value = value_from_json(
                raw["initial_value"], f"{path}.initial_value", problems
            )
        for key in sorted(set(raw) - {"id", "initial_date", "initial_value"}):
            problems.append(f"{path}: unknown key {key!r}")
        out.append(PlaceDecl(id=pid, initial_date=initial_date, initial_value=initial_value))
    return tuple(out)


def _parse_transitions(
    node: object, omega_count: int, problems: list[str]
) -> tuple[TransitionDecl, ...]:
    if not isinstance(node, list):
        problems.append("transitions: expected a list")
        return ()
    out = []
    seen = set()
    for i, raw in enumerate(node):
        path = f"transitions[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{path}: expected an object")
            continue
        tid = raw.get("id")
        if not isinstance(tid, str) or not tid:
            problems.append(f"{path}.id: expected a non-empty string")
            continue
        if tid in seen:
            problems.append(f"{path}.id: duplicate transition {tid!r}")
            continue
        seen.add(tid)

        arcs = {}
        for side in ("pre", "post"):
            raw_side = raw.get(side)
            if not isinstance(raw_side, list) or not all(isinstance(p, str) for p in raw_side):
                problems.append(f"{path}.{side}: expected a list of place ids")
                arcs[side] = ()
                continue
            if len(set(raw_side)) != len(raw_side):
                problems.append(f"{path}.{side}: duplicate place ids")
            arcs[side] = tuple(sorted(set(raw_side)))

        if "latency" not in raw:
            problems.append(f"{path}.latency: required")
            latency = const_latency(0)
        else:
            latency = latency_from_json(raw["latency"], omega_count, f"{path}.latency", problems)
            if latency is None:
                latency = const_latency(0)
            elif latency.kind == "expr":
                _check_inputs(latency.expr, len(arcs["pre"]), f"{path}.latency.expr", problems)

        latency_class = raw.get("latency_class")
        if latency_class is not None and not isinstance(latency_class, str):
            problems.append(f"{path}.latency_class: expected a string")
            latency_class = None

        value_fn = None
        if "value_fn" in raw:
            value_fn = value_fn_from_json(
                raw["value_fn"], omega_count, f"{path}.value_fn", problems
            )
            if value_fn is not None:
                _check_selects(value_fn, len(arcs["pre"]), f"{path}.value_fn", problems)

        guard = None
        if "guard" in raw:
            guard = guard_from_json(raw["guard"], f"{path}.guard", problems)
            if guard is not None:
                for side, operand in (("left", guard.left), ("right", guard.right)):
                    if operand.kind == "select" and operand.index >= len(arcs["pre"]):
                        problems.append(
                            f"{path}.guard.{side}: select {operand.index} out of range "
                            f"for {len(arcs['pre'])} inputs"
                        )

        for key in sorted(
            set(raw) - {"id", "pre", "post", "latency", "latency_class", "value_fn", "guard"}
        ):
            problems.append(f"{path}: unknown key {key!r}")
        out.append(
            TransitionDecl(
                id=tid,
                pre=arcs["pre"],
                post=arcs["post"],
                latency=latency,
                latency_class=latency_class,
                value_fn=value_fn,
                guard=guard,
            )
        )
    return tuple(out)


def _check_selects(spec: ValueFnSpec, arity: int, path: str, problems: list[str]) -> None:
    if spec.kind == "select" and spec.index >= arity:
        problems.append(f"{path}: select {spec.index} out of range for {arity} inputs")


def _check_inputs(expr: LatencyExpr, arity: int, path: str, problems: list[str]) -> None:
    if expr.op == "input" and expr.index >= arity:
        problems.append(f"{path}.index: input {expr.index} out of range for {arity} inputs")
    for i, arg in enumerate(expr.args):
        _check_inputs(arg, arity, f"{path}.args[{i}]", problems)


def _parse_grid(node: object, path: str, problems: list[str]) -> dict[str, tuple[ExtendedDate, ...]]:
    if not isinstance(node, dict):
        problems.append(f"{path}: expected an object")
        return {}
    out = {}
    for key in sorted(node):
        raw_values = node[key]
        if not isinstance(raw_values, list) or not raw_values:
            problems.append(f"{path}.{key}: expected a non-empty list of dates")
            continue
        values = []
        ok = True
        for j, raw in enumerate(raw_values):
            if not isinstance(raw, str):
                problems.append(f"{path}.{key}[{j}]: dates are decimal strings (or 'inf')")
                ok = False
                continue
            try:
                values.append(parse_date(raw))
            except EvaluationError as exc:
                problems.append(f"{path}.{key}[{j}]: {exc}")
                ok = False
        if ok:
            if len(set(values)) != len(values):
                problems.append(f"{path}.{key}: duplicate grid values")
            out[key] = tuple(values)
    return out


def _cross_checks(doc: NetDocument) -> list[str]:
    problems = []
    place_ids = {p.id for p in doc.places}
    transition_ids = {t.id for t in doc.transitions}
    if overlap := sorted(place_ids & transition_ids):
        problems.append(f"ids used for both places and transitions: {overlap}")
    for t in doc.transitions:
        for side in ("pre", "post"):
            for p in getattr(t, side):
                if p not in place_ids:
                    problems.append(f"transition {t.id!r}: {side} references unknown place {p!r}")

    # one declared latency spec per equality class
    class_specs: dict[str, tuple[str, LatencySpec]] = {}
    for t in doc.transitions:
        cls = doc.effective_class(t)
        if cls in class_specs:
            owner, spec = class_specs[cls]
            if spec != t.latency:
                problems.append(
                    f"class {cls!r}: transitions {owner!r} and {t.id!r} declare different latencies"
                )
        else:
            class_specs[cls] = (t.id, t.latency)
    for cls in sorted(doc.class_grids):
        if cls not in class_specs:
            problems.append(f"grids.{cls}: no transition has this latency class")
    for p in sorted(doc.place_grids):
        if p not in place_ids:
            problems.append(f"place_grids.{p}: unknown place")
    return problems


# ---------------------------------------------------------------------------
# orchnet.specs


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
        table = []
        for i, raw in enumerate(values):
            d = _parse_date_str(raw, f"{path}.values[{i}]", problems)
            if d is None:
                return None
            table.append(d)
        return LatencySpec(kind="per_omega", table=tuple(table))
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
