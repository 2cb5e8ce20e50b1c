"""Unfolding a safe acyclic net into an occurrence net with a morphism.

The construction is the usual possible-extensions loop: start with one
condition per initially marked place, then repeatedly pick a transition of
the carrier net and a concurrent set of conditions whose labels match its
preset exactly; each new combination yields a fresh event plus fresh postset
conditions.  Acyclic carriers give finite unfoldings, so no cutoff criterion
is needed.

Node names are canonical content hashes: an event is named from its label
and the sorted names of its preset conditions, a condition from its label
and its producing event ("" for initial conditions).  Construction order
therefore never leaks into the result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .errors import NetStructureError
from .nets import (
    Net,
    WorkflowNet,
    compute_relations,
    is_sound,
    require_occurrence_net,
)
from .timed import OrchNet, PreOrchNet
from .specs import LatencySpec, ValueFnSpec, GuardSpec
from .attributes import Value, atom


@dataclass(frozen=True)
class Morphism:
    """Maps unfolding nodes to carrier nodes, preserving kind and arcs."""

    node_map: dict[str, str]

    def __getitem__(self, node: str) -> str:
        return self.node_map[node]


@dataclass(frozen=True)
class UnfoldingResult:
    unfolding: Net
    morphism: Morphism


def _short_hash(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:8]


def _event_name(label: str, preset_names: frozenset[str]) -> str:
    return f"{label}~{_short_hash(label + '|' + ','.join(sorted(preset_names)))}"


def _condition_name(label: str, producer: str) -> str:
    return f"{label}~{_short_hash(label + '|' + producer)}"


def unfold(carrier: Net | WorkflowNet, require_sound: bool = True) -> UnfoldingResult:
    """Unfold a carrier net.

    Workflow carriers are soundness-checked first (pass
    ``require_sound=False`` to skip, e.g. for diagnostic use).  A carrier
    that is already an occurrence net unfolds to an isomorphic copy.
    """
    if isinstance(carrier, WorkflowNet):
        if require_sound:
            verdict = is_sound(carrier)
            if verdict.status != "sound":
                detail = "; ".join(i.message for i in verdict.issues[:3])
                raise NetStructureError(f"carrier is not sound ({verdict.status}): {detail}")
        net = carrier.net
    else:
        net = carrier
        if not net.is_acyclic():
            raise NetStructureError("carrier net must be acyclic")

    # conditions: name -> (label, producer event name or "")
    conditions: dict[str, tuple[str, str]] = {}
    # events: name -> (label, preset condition names)
    events: dict[str, tuple[str, frozenset[str]]] = {}
    # concurrency bookkeeping: causal past (event names) per condition
    past: dict[str, frozenset[str]] = {}
    event_preset: dict[str, frozenset[str]] = {}

    def register_condition(label: str, producer: str, producer_past: frozenset[str]) -> str:
        name = _condition_name(label, producer)
        if name in conditions:
            if conditions[name] != (label, producer):
                raise NetStructureError(f"hash collision on condition name {name!r}")
            return name
        conditions[name] = (label, producer)
        past[name] = producer_past
        return name

    for p in sorted(net.initial_marking):
        register_condition(p, "", frozenset())

    def concurrent(c1: str, c2: str) -> bool:
        """Conditions are concurrent iff causally unordered and conflict-free."""
        if c1 == c2:
            return False
        if c1 in _cond_cone(c2) or c2 in _cond_cone(c1):
            return False
        for e1 in past[c1]:
            for e2 in past[c2]:
                if e1 != e2 and event_preset[e1] & event_preset[e2]:
                    return False
        return True

    def _cond_cone(c: str) -> set[str]:
        # conditions causally below or equal: via chain of producing events
        seen: set[str] = {c}
        frontier = [c]
        while frontier:
            cond = frontier.pop()
            producer = conditions[cond][1]
            if producer:
                for pre_c in events[producer][1]:
                    if pre_c not in seen:
                        seen.add(pre_c)
                        frontier.append(pre_c)
        return seen

    changed = True
    while changed:
        changed = False
        by_label: dict[str, list[str]] = {}
        for name, (label, _) in conditions.items():
            by_label.setdefault(label, []).append(name)
        for label_list in by_label.values():
            label_list.sort()

        for t in sorted(net.transitions):
            pre_places = sorted(net.preset[t])
            if any(p not in by_label for p in pre_places):
                continue
            for combo in _combinations(by_label, pre_places):
                names = frozenset(combo)
                if len(names) != len(pre_places):
                    continue
                ok = True
                for i, c1 in enumerate(combo):
                    for c2 in combo[i + 1 :]:
                        if not concurrent(c1, c2):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                ename = _event_name(t, names)
                if ename in events:
                    if events[ename] != (t, names):
                        raise NetStructureError(f"hash collision on event name {ename!r}")
                    continue
                events[ename] = (t, names)
                event_preset[ename] = names
                ev_past = frozenset().union(*(past[c] for c in names)) | {ename} if names else frozenset({ename})
                for p in sorted(net.postset[t]):
                    register_condition(p, ename, ev_past)
                changed = True

    flow: set[tuple[str, str]] = set()
    for ename, (label, pre) in events.items():
        for c in pre:
            flow.add((c, ename))
    for cname, (label, producer) in conditions.items():
        if producer:
            flow.add((producer, cname))

    unfolding = Net(
        places=frozenset(conditions),
        transitions=frozenset(events),
        flow=frozenset(flow),
        initial_marking=frozenset(c for c, (_, prod) in conditions.items() if not prod),
    )
    node_map = {c: label for c, (label, _) in conditions.items()}
    node_map.update({e: label for e, (label, _) in events.items()})

    require_occurrence_net(unfolding)
    _check_morphism(unfolding, net, node_map)
    return UnfoldingResult(unfolding=unfolding, morphism=Morphism(node_map=node_map))


def _combinations(by_label: dict[str, list[str]], labels: list[str]):
    """Cartesian product of condition candidates per preset place label."""
    if not labels:
        yield ()
        return
    head, rest = labels[0], labels[1:]
    for choice in by_label[head]:
        for tail in _combinations(by_label, rest):
            yield (choice,) + tail


def _check_morphism(unfolding: Net, carrier: Net, node_map: dict[str, str]) -> None:
    """Morphism laws: kinds preserved; around each event, the map restricts
    to a bijection between preset/postset and the carrier transition's."""
    for node, image in node_map.items():
        if (node in unfolding.places) != (image in carrier.places):
            raise NetStructureError(f"morphism does not preserve node kind at {node!r}")
    for e in unfolding.transitions:
        t = node_map[e]
        pre_image = sorted(node_map[c] for c in unfolding.preset[e])
        post_image = sorted(node_map[c] for c in unfolding.postset[e])
        if pre_image != sorted(carrier.preset[t]) or post_image != sorted(carrier.postset[t]):
            raise NetStructureError(f"morphism is not a local bijection at event {e!r}")
    carrier_min = {node_map[c] for c in unfolding.minimal_places}
    if carrier_min != set(carrier.initial_marking) or len(unfolding.minimal_places) != len(
        carrier.initial_marking
    ):
        raise NetStructureError("minimal conditions are not in bijection with the initial marking")


# ---------------------------------------------------------------------------
# Spec transfer


@dataclass(frozen=True)
class CarrierSpecs:
    """Per-carrier-transition annotations pulled from a document or built in
    code, ready to be transferred onto an unfolding."""

    latency: dict[str, LatencySpec]
    value_fn: dict[str, ValueFnSpec]
    initial_date: dict[str, LatencySpec]
    guard: dict[str, GuardSpec] = field(default_factory=dict)
    latency_class: dict[str, str] = field(default_factory=dict)
    class_grid: dict[str, tuple] = field(default_factory=dict)
    place_grid: dict[str, tuple] = field(default_factory=dict)
    omega_count: int = 1
    upward_closed: bool = False
    initial_value: dict[str, Value] = field(default_factory=dict)  # default: atom(place)


def induced_preorchnet(result: UnfoldingResult, carrier: Net, specs: CarrierSpecs) -> PreOrchNet:
    """Transfer carrier annotations onto the unfolding through the morphism.

    Every copy of a carrier transition shares that transition's specs, and
    the equality classes group copies by declared class (default: one class
    per carrier transition), so grid members assign all copies one constant.
    """
    unf = result.unfolding
    phi = result.morphism.node_map

    value_fn: dict[str, ValueFnSpec] = {}
    guard: dict[str, GuardSpec] = {}
    classes: dict[str, set[str]] = {}
    class_spec: dict[str, LatencySpec] = {}
    for e in unf.transitions:
        t = phi[e]
        value_fn[e] = specs.value_fn[t]
        if t in specs.guard:
            guard[e] = specs.guard[t]
        cls = specs.latency_class.get(t, t)
        classes.setdefault(cls, set()).add(e)
        declared = specs.latency[t]
        if cls in class_spec and class_spec[cls] != declared:
            raise NetStructureError(
                f"class {cls!r} mixes different declared latencies"
            )
        class_spec[cls] = declared

    # carrier transitions with no copies (dead in an unsound carrier) still
    # deserve their class so grids stay aligned; sound carriers have none
    initial_date: dict[str, LatencySpec] = {}
    initial_value: dict[str, Value] = {}
    place_grid: dict[str, tuple] = {}
    for c in unf.minimal_places:
        p = phi[c]
        initial_date[c] = specs.initial_date[p]
        initial_value[c] = specs.initial_value.get(p, atom(p))
        if p in specs.place_grid:
            place_grid[c] = tuple(specs.place_grid[p])

    class_grid = {
        cls: tuple(specs.class_grid[cls])
        for cls in specs.class_grid
        if cls in classes
    }

    return PreOrchNet(
        net=unf,
        value_fn=value_fn,
        classes={cls: frozenset(ms) for cls, ms in classes.items()},
        class_spec=class_spec,
        class_grid=class_grid,
        initial_date=initial_date,
        place_grid=place_grid,
        omega_count=specs.omega_count,
        guard=guard,
        initial_value=initial_value,
        upward_closed=specs.upward_closed,
    )
