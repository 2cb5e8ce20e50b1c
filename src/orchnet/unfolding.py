"""Unfolding an acyclic net into an occurrence net with a morphism.

The construction is the possible-extensions loop of Khomenko and Koutny
("Towards an efficient algorithm for unfolding Petri nets", CONCUR 2001),
in one pass: start with one condition per initially marked place, then
take the carrier's transitions once each, in topological order.  By the
time a transition t is taken, every condition labelled with a place of
its preset exists, so t gets one event per co-set of conditions whose
labels match its preset exactly, and each event gets fresh postset
conditions.  Acyclic carriers give finite unfoldings, so no cutoff
criterion is needed; ``EVENT_CAP`` bounds their exponential growth.

Concurrency is kept in co-set tables, as in the possible-extensions
algorithms of Esparza and Heljanko (*Unfoldings: A Partial-Order Approach
to Model Checking*, 2008, ch. 4): each condition holds the set of
conditions concurrent with it.  An event's postset conditions are
concurrent with each other and with every condition concurrent with all
of its preset, and each of those learns of them in turn.  A transition's
co-sets are found by cutting each candidate list down to the conditions
concurrent with those already chosen.  A condition whose label no
transition still to be taken consumes is never a candidate again, so it
is left out of the co-sets built after that.

Node names are canonical content hashes: an event is named from its label
and the sorted names of its preset conditions, a condition from its label
and its producing event ("" for initial conditions).  The digest is 8 hex
characters, widened to 16 for the nodes of one label whose 8-character
names collide.  Construction order therefore never leaks into the result.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType

from .errors import CapExceededError, NetStructureError
from .nets import (
    Net,
    WorkflowNet,
    _flow_order,
    is_sound,
    net_from_arcs,
    require_occurrence_net,
)
from .timed import OrchNet, PreOrchNet
from .specs import LatencySpec, ValueFnSpec, GuardSpec, const_value_fn
from .attributes import Value, atom

# The unfolding of k differing-postset choices in a row has 4(2^k - 1)
# events: k = 14 fits, k = 15 is undecided.
EVENT_CAP = 100_000


@dataclass(frozen=True)
class Morphism:
    """Maps unfolding nodes to carrier nodes, preserving kind and arcs."""

    node_map: Mapping[str, str]

    def __getitem__(self, node: str) -> str:
        return self.node_map[node]


@dataclass(frozen=True)
class UnfoldingResult:
    unfolding: Net
    morphism: Morphism


def unfold(carrier: Net | WorkflowNet, require_sound: bool = True) -> UnfoldingResult:
    """Unfold a carrier net.

    Workflow carriers are soundness-checked first (pass
    ``require_sound=False`` to skip, e.g. for diagnostic use).  A carrier
    that is already an occurrence net unfolds to an isomorphic copy.
    Raises CapExceededError past ``EVENT_CAP`` events.
    """
    # memoized: building a document and synthesizing from its carrier
    # unfold the same net, one after the other.  Callers share the result,
    # so its morphism is read-only.
    return _unfold(carrier, require_sound)


@lru_cache(maxsize=2)
def _unfold(carrier: Net | WorkflowNet, require_sound: bool) -> UnfoldingResult:
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

    order = [t for t in _flow_order(net) if t in net.transitions]
    cond_label, cond_producer, ev_label, ev_preset = _extend(net, order)

    cond_names, ev_names = _names(net, order, cond_label, cond_producer, ev_label, ev_preset)
    node_map = dict(zip(cond_names, cond_label))
    node_map.update(zip(ev_names, ev_label))
    if len(node_map) != len(cond_names) + len(ev_names):
        raise NetStructureError("hash collision on unfolding node names")
    # _extend adds each event's postset conditions right after the event, and
    # after the initial ones: event e's are cond_names[ends[e]:ends[e + 1]]
    ends = list(accumulate((len(net.postset[t]) for t in ev_label), initial=len(net.initial_marking)))
    # a condition's one-element set is shared by the events that hold it alone
    single = [frozenset((c,)) for c in cond_names]
    unfolding = net_from_arcs(
        {
            name: (
                single[combo[0]] if len(combo) == 1 else frozenset(map(cond_names.__getitem__, combo)),
                single[a] if b - a == 1 else frozenset(cond_names[a:b]),
            )
            for name, combo, a, b in zip(ev_names, ev_preset, ends, ends[1:])
        },
        places=cond_names,
    )

    require_occurrence_net(unfolding)
    _check_morphism(unfolding, net, node_map)
    return UnfoldingResult(
        unfolding=unfolding, morphism=Morphism(node_map=MappingProxyType(node_map))
    )


def _extend(net: Net, order: list[str]):
    """The one pass: conditions and events, numbered in creation order.

    Returns each condition's label and producing event (-1 for an initial
    condition), and each event's label and preset conditions.
    """
    pre, post = net.preset, net.postset
    cond_label: list[str] = []
    cond_producer: list[int] = []
    co: list[set[int]] = []  # per condition, the live conditions concurrent with it
    by_place: dict[str, list[int]] = {p: [] for p in net.places}
    ev_label: list[str] = []
    ev_preset: list[tuple[int, ...]] = []
    # a condition is live while a transition not yet taken consumes its
    # label; co-sets are read only for live conditions, so they hold no other
    waiting = {p: len(post[p]) for p in net.places}
    live: set[int] = set()

    def add_conditions(labels: list[str], producer: int, concurrent: set[int]) -> None:
        """One condition per label, concurrent with each other and with the
        live conditions of ``concurrent``, which is handed over."""
        new = []
        for label in labels:
            c = len(cond_label)
            by_place[label].append(c)
            cond_label.append(label)
            cond_producer.append(producer)
            if waiting[label]:
                new.append(c)
        if len(labels) == 1:
            co.append(concurrent)
        else:
            for c in range(len(co), len(cond_label)):
                mine = concurrent.union(new)
                mine.discard(c)
                co.append(mine)
        if new:
            for d in concurrent:
                co[d].update(new)
            live.update(new)

    add_conditions(sorted(net.initial_marking), -1, set())
    for t in order:
        ps = sorted(pre[t])
        candidates = [by_place[p] for p in ps]
        labels = sorted(post[t])
        for combo in list(_cosets(candidates, co, len(ev_label))):
            ev_label.append(t)
            ev_preset.append(combo)
            # concurrent with all of the preset (with no preset, with every
            # live condition)
            add_conditions(labels, len(ev_label) - 1, live.intersection(*[co[c] for c in combo]))
        for p in ps:
            waiting[p] -= 1
            if not waiting[p]:
                live.difference_update(by_place[p])
    return cond_label, cond_producer, ev_label, ev_preset


def _cosets(candidates, co, events: int):
    """Every choice of one condition per candidate list whose conditions
    are pairwise concurrent.

    Each candidate list is cut down to the conditions concurrent with every
    one chosen before it.  ``events`` is the number of events built so far,
    for the cap.
    """
    found = events
    last = len(candidates) - 1
    stack: list[tuple[int, tuple[int, ...], set[int] | None]] = [(0, (), None)]
    while stack:
        i, combo, allowed = stack.pop()
        if i > last:
            found += 1
            if found > EVENT_CAP:
                raise CapExceededError(f"unfolding exceeded the event cap {EVENT_CAP}")
            yield combo
            continue
        for c in candidates[i]:
            if allowed is None:
                stack.append((i + 1, (c,), co[c]))
            elif c in allowed:
                stack.append((i + 1, combo + (c,), allowed & co[c] if i < last else None))


def _names(net: Net, order, cond_label, cond_producer, ev_label, ev_preset):
    """Content-hash names for every condition and event.

    The carrier's transitions are taken in topological order, each after
    the producers of its preset places, so a node is named only once all
    nodes its name depends on are, and once every node of its own label
    exists: collisions are widened within the whole label.
    """
    cond_names: list[str | None] = [None] * len(cond_label)
    ev_names: list[str | None] = [None] * len(ev_label)
    conds_of: dict[str, list[int]] = {}
    for c, label in enumerate(cond_label):
        conds_of.setdefault(label, []).append(c)
    evs_of: dict[str, list[int]] = {}
    for e, label in enumerate(ev_label):
        evs_of.setdefault(label, []).append(e)

    def name_conditions(p: str) -> None:
        ids = conds_of.get(p, ())
        if ids and cond_names[ids[0]] is None:
            keys = [ev_names[cond_producer[c]] if cond_producer[c] >= 0 else "" for c in ids]
            for c, name in zip(ids, _label_names(p, keys)):
                cond_names[c] = name

    for t in order:
        for p in net.preset[t]:
            name_conditions(p)
        ids = evs_of.get(t, ())
        keys = [",".join(sorted(cond_names[c] for c in ev_preset[e])) for e in ids]
        for e, name in zip(ids, _label_names(t, keys)):
            ev_names[e] = name
    for p in net.places:
        name_conditions(p)
    return cond_names, ev_names


def _label_names(label: str, keys: list[str]) -> list[str]:
    """``label~digest`` per key: 8 hex characters of the SHA-1 of
    ``label|key``, or 16 where two keys share the 8-character digest."""
    digests = [hashlib.sha1(f"{label}|{key}".encode("utf-8")).hexdigest() for key in keys]
    names = [f"{label}~{d[:8]}" for d in digests]
    if len(set(names)) == len(names):
        return names
    short = Counter(names)
    return [n if short[n] == 1 else f"{label}~{d[:16]}" for n, d in zip(names, digests)]


def _check_morphism(unfolding: Net, carrier: Net, node_map: Mapping[str, str]) -> None:
    """Morphism laws: kinds preserved; around each event, the map restricts
    to a bijection between preset/postset and the carrier transition's."""
    for node, image in node_map.items():
        if (node in unfolding.places) != (image in carrier.places):
            raise NetStructureError(f"morphism does not preserve node kind at {node!r}")
    # a carrier preset or postset has no duplicates, so equal sizes and equal
    # image sets make a bijection
    for e in unfolding.transitions:
        t = node_map[e]
        pre, post = unfolding.preset[e], unfolding.postset[e]
        if (
            len(pre) != len(carrier.preset[t])
            or len(post) != len(carrier.postset[t])
            or {node_map[c] for c in pre} != carrier.preset[t]
            or {node_map[c] for c in post} != carrier.postset[t]
        ):
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
    value_fn: dict[str, ValueFnSpec]  # default: the atom of the carrier transition
    initial_date: dict[str, LatencySpec]
    guard: dict[str, GuardSpec] = field(default_factory=dict)
    latency_class: dict[str, str] = field(default_factory=dict)
    class_grid: dict[str, tuple] = field(default_factory=dict)
    place_grid: dict[str, tuple] = field(default_factory=dict)
    omega_count: int = 1
    upward_closed: bool = False
    initial_value: dict[str, Value] = field(default_factory=dict)  # default: atom(place)


def induced_preorchnet(result: UnfoldingResult, specs: CarrierSpecs) -> PreOrchNet:
    """Transfer carrier annotations onto the unfolding through the morphism.

    Every copy of a carrier transition shares that transition's specs, and
    the equality classes group copies by declared class (default: one class
    per carrier transition), so grid members assign all copies one constant.
    """
    unf = result.unfolding
    phi = result.morphism.node_map

    # an event takes its carrier transition's value function; where that
    # transition declares none, an event named as it takes the OrchNet
    # default and any other copy one shared const of the transition's atom
    value_fn: dict[str, ValueFnSpec] = {}
    defaults: dict[str, ValueFnSpec] = {}
    guard: dict[str, GuardSpec] = {}
    # a class is built once: as its one member's set, or, once it has a
    # second member, from the list in ``grown``
    classes: dict[str, frozenset[str]] = {}
    grown: dict[str, list[str]] = {}
    class_spec: dict[str, LatencySpec] = {}
    declared_fn, declared_guard = specs.value_fn, specs.guard
    declared_class, declared_latency = specs.latency_class, specs.latency
    for e in unf.transitions:
        t = phi[e]
        fn = declared_fn.get(t)
        if fn is None and e != t:
            if t not in defaults:
                defaults[t] = const_value_fn(atom(t))
            fn = defaults[t]
        if fn is not None:
            value_fn[e] = fn
        if t in declared_guard:
            guard[e] = declared_guard[t]
        cls = declared_class.get(t, t)
        declared = declared_latency[t]
        first = classes.get(cls)
        if first is None:
            classes[cls] = frozenset((e,))
            class_spec[cls] = declared
            continue
        if class_spec[cls] != declared:
            raise NetStructureError(
                f"class {cls!r} mixes different declared latencies"
            )
        if cls in grown:
            grown[cls].append(e)
        else:
            grown[cls] = [*first, e]
    for cls, members in grown.items():
        classes[cls] = frozenset(members)

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
        classes=classes,
        class_spec=class_spec,
        class_grid=class_grid,
        initial_date=initial_date,
        place_grid=place_grid,
        omega_count=specs.omega_count,
        guard=guard,
        initial_value=initial_value,
        upward_closed=specs.upward_closed,
    )
