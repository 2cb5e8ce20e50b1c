"""On-disk net documents.

A ``.net`` file is a JSON object describing a carrier net with its timing
and value attributes:

* ``format_version``: currently 1.
* ``kind``: "occurrence" (executed directly) or "workflow" (validated for
  soundness and unfolded before execution).
* ``omega_count``: number of scenario columns; per-scenario tables must
  have exactly this length.
* ``places``: list of ``{"id", "initial_date"?, "initial_value"?}``;
  initial attributes are only legal on minimal places.
* ``transitions``: list of ``{"id", "pre", "post", "latency",
  "latency_class"?, "value_fn"?, "guard"?}``.
* ``grids``: candidate latency values per equality class (dates as
  strings: "inf", integers, decimals, or "p/q").
* ``place_grids``: candidate initial dates per minimal place.
* ``flags.upward_closed``: whether the declared family is closed under
  raising latencies.

Parsing collects every problem (with a JSON path) before failing, so a
bad file is reported in one round.  Serialization is canonical: ids are
sorted, defaults omitted, and the same document always produces the same
bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import NamedTuple

from .attributes import (
    ExtendedDate,
    Value,
    atom,
    format_date,
    parse_date,
    value_from_json,
    value_to_json,
)
from .errors import DocumentError, EvaluationError, NetStructureError
from .nets import Net, WorkflowNet, net_from_arcs, require_occurrence_net
from .specs import (
    GuardSpec,
    LatencyExpr,
    LatencySpec,
    ValueFnSpec,
    const_latency,
    guard_from_json,
    guard_to_json,
    latency_from_json,
    latency_to_json,
    value_fn_from_json,
    value_fn_to_json,
)
from .timed import OrchNet, PreOrchNet
from .unfolding import CarrierSpecs, Morphism, UnfoldingResult, induced_preorchnet, unfold

FORMAT_VERSION = 1


# Declarations are tuples, built once per node of a document: equality,
# hash and ``repr`` are those of frozen dataclasses with these fields, and
# ``_replace`` makes a changed copy.


class PlaceDecl(NamedTuple):
    id: str
    initial_date: LatencySpec | None = None
    initial_value: Value | None = None


class TransitionDecl(NamedTuple):
    id: str
    pre: tuple[str, ...]
    post: tuple[str, ...]
    latency: LatencySpec
    latency_class: str | None = None
    value_fn: ValueFnSpec | None = None
    guard: GuardSpec | None = None


@dataclass(frozen=True)
class NetDocument:
    kind: str  # "occurrence" | "workflow"
    omega_count: int
    places: tuple[PlaceDecl, ...]
    transitions: tuple[TransitionDecl, ...]
    class_grids: dict[str, tuple[ExtendedDate, ...]] = field(default_factory=dict)
    place_grids: dict[str, tuple[ExtendedDate, ...]] = field(default_factory=dict)
    upward_closed: bool = False

    def effective_class(self, t: TransitionDecl) -> str:
        return t.latency_class if t.latency_class is not None else t.id


# ---------------------------------------------------------------------------
# Parsing


# Known keys; anything else is reported as unknown.
_TOP_KEYS = frozenset(
    {"format_version", "kind", "omega_count", "places", "transitions", "grids", "place_grids", "flags"}
)
_PLACE_KEYS = frozenset({"id", "initial_date", "initial_value"})
_TRANSITION_KEYS = frozenset({"id", "pre", "post", "latency", "latency_class", "value_fn", "guard"})

# A JSON path is formatted only when a problem names it.  Nested specs are
# parsed with the empty path, into a list of their own: each spec parser
# starts its messages with the path it is given, so those messages are the
# tails of the full ones, and the node's path is put in front of them.


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

    if unknown := obj.keys() - _TOP_KEYS:
        problems += [f"unknown top-level key {key!r}" for key in sorted(unknown)]

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
        if unknown := flags.keys() - {"upward_closed"}:
            problems += [f"flags: unknown key {key!r}" for key in sorted(unknown)]

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
        if not isinstance(raw, dict):
            problems.append(f"places[{i}]: expected an object")
            continue
        pid = raw.get("id")
        if not isinstance(pid, str) or not pid:
            problems.append(f"places[{i}].id: expected a non-empty string")
            continue
        if pid in seen:
            problems.append(f"places[{i}].id: duplicate place {pid!r}")
            continue
        seen.add(pid)
        initial_date = initial_value = None
        if "initial_date" in raw:
            found: list[str] = []
            initial_date = latency_from_json(raw["initial_date"], omega_count, "", found)
            if initial_date is not None and initial_date.kind == "expr":
                found.append(
                    ".kind: an initial date cannot be an expression (it has no inputs)"
                )
            problems += [f"places[{i}].initial_date{m}" for m in found]
        if "initial_value" in raw:
            found = []
            initial_value = value_from_json(raw["initial_value"], "", found)
            problems += [f"places[{i}].initial_value{m}" for m in found]
        if not _PLACE_KEYS.issuperset(raw):
            unknown = raw.keys() - _PLACE_KEYS
            problems += [f"places[{i}]: unknown key {key!r}" for key in sorted(unknown)]
        out.append(PlaceDecl(pid, initial_date, initial_value))
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
        if not isinstance(raw, dict):
            problems.append(f"transitions[{i}]: expected an object")
            continue
        tid = raw.get("id")
        if not isinstance(tid, str) or not tid:
            problems.append(f"transitions[{i}].id: expected a non-empty string")
            continue
        if tid in seen:
            problems.append(f"transitions[{i}].id: duplicate transition {tid!r}")
            continue
        seen.add(tid)
        pre = _arc_ids(raw.get("pre"), i, "pre", problems)
        post = _arc_ids(raw.get("post"), i, "post", problems)

        if "latency" not in raw:
            problems.append(f"transitions[{i}].latency: required")
            latency = const_latency(0)
        else:
            found: list[str] = []
            latency = latency_from_json(raw["latency"], omega_count, "", found)
            if latency is None:
                latency = const_latency(0)
            elif latency.kind == "expr":
                _check_inputs(latency.expr, len(pre), ".expr", found)
            if found:
                problems += [f"transitions[{i}].latency{m}" for m in found]

        latency_class = raw.get("latency_class")
        if latency_class is not None and not isinstance(latency_class, str):
            problems.append(f"transitions[{i}].latency_class: expected a string")
            latency_class = None

        value_fn = None
        if "value_fn" in raw:
            found = []
            value_fn = value_fn_from_json(raw["value_fn"], omega_count, "", found)
            if value_fn is not None:
                _check_selects(value_fn, len(pre), "", found)
            problems += [f"transitions[{i}].value_fn{m}" for m in found]

        guard = None
        if "guard" in raw:
            found = []
            guard = guard_from_json(raw["guard"], "", found)
            if guard is not None:
                for side, operand in (("left", guard.left), ("right", guard.right)):
                    if operand.kind == "select" and operand.index >= len(pre):
                        found.append(
                            f".{side}: select {operand.index} out of range "
                            f"for {len(pre)} inputs"
                        )
            problems += [f"transitions[{i}].guard{m}" for m in found]

        if not _TRANSITION_KEYS.issuperset(raw):
            unknown = raw.keys() - _TRANSITION_KEYS
            problems += [f"transitions[{i}]: unknown key {key!r}" for key in sorted(unknown)]
        out.append(TransitionDecl(tid, pre, post, latency, latency_class, value_fn, guard))
    return tuple(out)


def _arc_ids(raw: object, i: int, side: str, problems: list[str]) -> tuple[str, ...]:
    """The distinct place ids of transition i's ``pre`` or ``post`` list,
    sorted."""
    if isinstance(raw, list):
        if len(raw) == 1 and isinstance(raw[0], str):
            return (raw[0],)
        if all(isinstance(p, str) for p in raw):
            ids = set(raw)
            if len(ids) != len(raw):
                problems.append(f"transitions[{i}].{side}: duplicate place ids")
            return tuple(sorted(ids))
    problems.append(f"transitions[{i}].{side}: expected a list of place ids")
    return ()


def _check_selects(spec: ValueFnSpec, arity: int, path: str, problems: list[str]) -> None:
    if spec.kind == "select" and spec.index >= arity:
        problems.append(f"{path}: select {spec.index} out of range for {arity} inputs")


def _check_inputs(expr: LatencyExpr, arity: int, path: str, problems: list[str]) -> None:
    if expr.op == "input" and expr.index >= arity:
        problems.append(f"{path}.index: input {expr.index} out of range for {arity} inputs")
    for i, arg in enumerate(expr.args):
        _check_inputs(arg, arity, f"{path}.args[{i}]", problems)


def _check_input_values(
    expr: LatencyExpr,
    pre: tuple[str, ...],
    minimal: frozenset[str],
    initial_value: dict[str, Value],
    path: str,
    problems: list[str],
) -> None:
    """An ``input`` that reads a minimal place whose value is not a number
    can never be evaluated."""
    if expr.op == "input":
        problem = _non_numeric_start(pre, expr.index, minimal, initial_value)
        if problem:
            problems.append(f"{path}.index: input {expr.index} {problem}")
    for i, arg in enumerate(expr.args):
        _check_input_values(arg, pre, minimal, initial_value, f"{path}.args[{i}]", problems)


def _non_numeric_start(
    pre: tuple[str, ...], index: int, minimal: frozenset[str], initial_value: dict[str, Value]
) -> str:
    """Why input ``index`` of a transition with preset ``pre`` is never a
    number, or "" if it may be one: it reads a minimal place whose start
    value is not a number.  A minimal place without a declared
    initial_value carries the atom of its own id."""
    if index < len(pre) and pre[index] in minimal:
        p = pre[index]
        v = initial_value.get(p, atom(p))
        if v.kind != "num":
            return f"reads minimal place {p!r}, whose value {v} is not a number"
    return ""


def _check_guard_operands(
    guard: GuardSpec,
    pre: tuple[str, ...],
    minimal: frozenset[str],
    initial_value: dict[str, Value],
    path: str,
    problems: list[str],
) -> None:
    """``lt`` and ``leq`` compare numbers, so a non-numeric constant operand
    can never be evaluated, nor can a ``select`` that reads a minimal place
    whose start value is not a number.  Evaluating such a guard raises one
    error, so the selects are looked at only when no constant fails, and
    the first failing select alone is reported."""
    if guard.op == "eq":
        return
    sides = (("left", guard.left), ("right", guard.right))
    found = len(problems)
    for side, operand in sides:
        if operand.kind == "const" and operand.const.kind != "num":
            problems.append(
                f"{path}.{side}.value: guard {guard.op} needs a number, got {operand.const}"
            )
    if len(problems) > found:
        return
    for side, operand in sides:
        if operand.kind == "select":
            problem = _non_numeric_start(pre, operand.index, minimal, initial_value)
            if problem:
                problems.append(f"{path}.{side}.index: select {operand.index} {problem}")
                return


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
        if place_ids.issuperset(t.pre) and place_ids.issuperset(t.post):
            continue
        for side, ids in (("pre", t.pre), ("post", t.post)):
            for p in ids:
                if p not in place_ids:
                    problems.append(f"transition {t.id!r}: {side} references unknown place {p!r}")

    # one declared latency spec per equality class, kept with the first
    # transition that declares it
    class_specs: dict[str, TransitionDecl] = {}
    for t in doc.transitions:
        cls = doc.effective_class(t)
        declared = class_specs.get(cls)
        if declared is None:
            class_specs[cls] = t
        elif declared.latency != t.latency:
            problems.append(
                f"class {cls!r}: transitions {declared.id!r} and {t.id!r} declare different latencies"
            )
    for cls in sorted(doc.class_grids):
        if cls not in class_specs:
            problems.append(f"grids.{cls}: no transition has this latency class")
    for p in sorted(doc.place_grids):
        if p not in place_ids:
            problems.append(f"place_grids.{p}: unknown place")
    return problems


def loads(text: str) -> NetDocument:
    try:
        try:
            data = json.loads(text)
        except ValueError as exc:  # bad syntax, or an integer past Python's digit limit
            raise DocumentError([f"invalid JSON: {exc}"]) from exc
        return document_from_json(data)
    except RecursionError as exc:
        raise DocumentError(["document is nested too deeply"]) from exc


def load(path: str) -> NetDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError([f"cannot read {path}: {exc}"]) from exc
    return loads(text)


# ---------------------------------------------------------------------------
# Serialization


def document_to_json(doc: NetDocument) -> dict:
    places = []
    for p in sorted(doc.places, key=lambda p: p.id):
        entry: dict[str, object] = {"id": p.id}
        if p.initial_date is not None:
            entry["initial_date"] = latency_to_json(p.initial_date)
        if p.initial_value is not None:
            entry["initial_value"] = value_to_json(p.initial_value)
        places.append(entry)
    transitions = []
    for t in sorted(doc.transitions, key=lambda t: t.id):
        entry = {
            "id": t.id,
            "pre": list(t.pre),
            "post": list(t.post),
            "latency": latency_to_json(t.latency),
        }
        if t.latency_class is not None:
            entry["latency_class"] = t.latency_class
        if t.value_fn is not None:
            entry["value_fn"] = value_fn_to_json(t.value_fn)
        if t.guard is not None:
            entry["guard"] = guard_to_json(t.guard)
        transitions.append(entry)
    return {
        "format_version": FORMAT_VERSION,
        "kind": doc.kind,
        "omega_count": doc.omega_count,
        "places": places,
        "transitions": transitions,
        "grids": {cls: [format_date(v) for v in vs] for cls, vs in sorted(doc.class_grids.items())},
        "place_grids": {
            p: [format_date(v) for v in vs] for p, vs in sorted(doc.place_grids.items())
        },
        "flags": {"upward_closed": doc.upward_closed},
    }


def dumps(doc: NetDocument) -> str:
    return json.dumps(document_to_json(doc), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Building runnable nets


@dataclass(frozen=True)
class BuiltDocument:
    document: NetDocument
    carrier: Net | WorkflowNet
    specs: CarrierSpecs
    unfolding: UnfoldingResult  # the identity on an occurrence carrier

    @property
    def carrier_net(self) -> Net:
        c = self.carrier
        return c.net if isinstance(c, WorkflowNet) else c

    @cached_property
    def pre(self) -> PreOrchNet:
        """The grid family on the unfolding, induced when first read."""
        return induced_preorchnet(self.unfolding, self.specs)


def document_net(doc: NetDocument) -> Net:
    """The document's places and arcs as a ``Net``, marked at its minimal
    places.  Raises NetStructureError on a bad arc."""
    return net_from_arcs(
        {t.id: (t.pre, t.post) for t in doc.transitions}, places=[p.id for p in doc.places]
    )


def build_carrier(doc: NetDocument) -> Net | WorkflowNet:
    try:
        net = document_net(doc)
        if doc.kind == "workflow":
            return WorkflowNet.from_net(net)
        require_occurrence_net(net)
        return net
    except NetStructureError as exc:
        raise DocumentError([f"net: {exc}"]) from exc


def carrier_specs(doc: NetDocument, carrier: Net | WorkflowNet) -> CarrierSpecs:
    net = carrier.net if isinstance(carrier, WorkflowNet) else carrier
    problems = []
    minimal = net.minimal_places
    latency = {}
    value_fn = {}
    guard = {}
    latency_class = {}
    initial_value = {p.id: p.initial_value for p in doc.places if p.initial_value is not None}
    for i, t in enumerate(doc.transitions):
        latency[t.id] = t.latency
        if t.value_fn is not None:
            value_fn[t.id] = t.value_fn
        if t.guard is not None:
            guard[t.id] = t.guard
            path = f"transitions[{i}].guard"
            _check_guard_operands(t.guard, t.pre, minimal, initial_value, path, problems)
        if t.latency_class is not None:
            latency_class[t.id] = t.latency_class
        if t.latency.kind == "expr":
            path = f"transitions[{i}].latency.expr"
            _check_input_values(t.latency.expr, t.pre, minimal, initial_value, path, problems)
    initial_date = {}
    for p in doc.places:
        if p.initial_date is not None and p.id not in minimal:
            problems.append(f"place {p.id!r}: initial_date on a non-minimal place")
        if p.initial_value is not None and p.id not in minimal:
            problems.append(f"place {p.id!r}: initial_value on a non-minimal place")
    for p in sorted(doc.place_grids):
        if p not in minimal:
            problems.append(f"place_grids.{p}: not a minimal place")
    if problems:
        raise DocumentError(problems)
    for p in doc.places:
        if p.id in minimal:
            initial_date[p.id] = p.initial_date if p.initial_date is not None else const_latency(0)
    return CarrierSpecs(
        latency=latency,
        value_fn=value_fn,
        initial_date=initial_date,
        guard=guard,
        latency_class=latency_class,
        class_grid=dict(doc.class_grids),
        place_grid=dict(doc.place_grids),
        omega_count=doc.omega_count,
        upward_closed=doc.upward_closed,
        initial_value=initial_value,
    )


def build(doc: NetDocument, checked: Net | WorkflowNet | None = None) -> BuiltDocument:
    """Validate and assemble everything needed to analyze a document.

    ``checked`` is the document's carrier when the caller has built and
    checked it already: an occurrence net that ``occurrence_check``
    passed, or a workflow net that ``is_sound`` found sound.  It is then
    neither rebuilt nor checked again.
    """
    carrier = build_carrier(doc) if checked is None else checked
    specs = carrier_specs(doc, carrier)
    net = carrier.net if isinstance(carrier, WorkflowNet) else carrier
    if doc.kind == "workflow":
        try:
            result = unfold(carrier, require_sound=checked is None)
        except NetStructureError as exc:
            raise DocumentError([f"workflow: {exc}"]) from exc
    else:
        # an occurrence net is its own unfolding
        result = UnfoldingResult(unfolding=net, morphism=Morphism({n: n for n in net.nodes}))
    return BuiltDocument(document=doc, carrier=carrier, specs=specs, unfolding=result)


def _is_own_atom(value: Value | None, node: str) -> bool:
    """Whether ``value`` is the atom of ``node``'s id, a node's default."""
    return value is not None and value.kind == "atom" and value.atom == node


def document_from_orchnet(orch: OrchNet) -> NetDocument:
    """A replayable occurrence document for a concrete member (witness
    serialization).

    Grids are dropped: the document pins exactly one member.
    """
    net = orch.net
    places = []
    for p in sorted(net.places):
        initial_date = orch.initial_date.get(p) if p in net.minimal_places else None
        initial_value = None
        if p in net.minimal_places:
            declared = orch.initial_value.get(p)
            if not _is_own_atom(declared, p):
                initial_value = declared
        places.append(PlaceDecl(id=p, initial_date=initial_date, initial_value=initial_value))
    transitions = []
    for t in sorted(net.transitions):
        vf = orch.value_fn.get(t)
        if vf is not None and vf.kind == "const" and _is_own_atom(vf.const, t):
            vf = None
        transitions.append(
            TransitionDecl(
                id=t,
                pre=tuple(sorted(net.preset[t])),
                post=tuple(sorted(net.postset[t])),
                latency=orch.latency[t],
                value_fn=vf,
                guard=orch.guard.get(t),
            )
        )
    return NetDocument(
        kind="occurrence",
        omega_count=orch.omega_count,
        places=tuple(places),
        transitions=tuple(transitions),
    )


# ---------------------------------------------------------------------------
# Bundled example nets


def corpus_names() -> tuple[str, ...]:
    root = resources.files("orchnet").joinpath("corpus")
    return tuple(sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".net")))


def corpus_text(name: str) -> str:
    root = resources.files("orchnet").joinpath("corpus")
    entry = root.joinpath(f"{name}.net")
    if not entry.is_file():
        raise DocumentError([f"unknown corpus net {name!r}; available: {list(corpus_names())}"])
    return entry.read_text(encoding="utf-8")


def load_corpus(name: str) -> NetDocument:
    return loads(corpus_text(name))
