"""The fixpoint unfolder that ``unfolding.unfold`` replaced, kept as the
reference its one-pass construction is compared against.

Each round re-enumerates every preset combination of every carrier
transition, and each pairwise concurrency test compares two causal cones
and then two causal pasts event by event, until a round adds nothing.
``event_limit`` stops it early (``None`` is returned) so that a test can
skip the draws on which it would run for minutes.  That limit, caching
each condition's cone and each pair's concurrency, and handing the result
to ``net_from_arcs`` as per-event tables instead of an arc set are the
only changes to the replaced code.
"""

from __future__ import annotations

import hashlib

from orchnet.errors import NetStructureError
from orchnet.nets import Net, WorkflowNet, net_from_arcs, require_occurrence_net
from orchnet.unfolding import Morphism, UnfoldingResult, _check_morphism


def _short_hash(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:8]


def _event_name(label: str, preset_names: frozenset[str]) -> str:
    return f"{label}~{_short_hash(label + '|' + ','.join(sorted(preset_names)))}"


def _condition_name(label: str, producer: str) -> str:
    return f"{label}~{_short_hash(label + '|' + producer)}"


def ref_unfold(carrier: Net | WorkflowNet, event_limit: int | None = None) -> UnfoldingResult | None:
    """Unfold a sound workflow net or an acyclic net (no soundness check)."""
    net = carrier.net if isinstance(carrier, WorkflowNet) else carrier

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

    verdicts: dict[tuple[str, str], bool] = {}

    def concurrent(c1: str, c2: str) -> bool:
        # two existing conditions stay concurrent or not in every round
        if (c1, c2) not in verdicts:
            verdicts[c1, c2] = _concurrent(c1, c2)
        return verdicts[c1, c2]

    def _concurrent(c1: str, c2: str) -> bool:
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

    cones: dict[str, set[str]] = {}

    def _cond_cone(c: str) -> set[str]:
        # a condition's cone never changes once the condition exists
        if c not in cones:
            cones[c] = _build_cone(c)
        return cones[c]

    def _build_cone(c: str) -> set[str]:
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
                if event_limit is not None and len(events) > event_limit:
                    return None
                event_preset[ename] = names
                ev_past = frozenset().union(*(past[c] for c in names)) | {ename} if names else frozenset({ename})
                for p in sorted(net.postset[t]):
                    register_condition(p, ename, ev_past)
                changed = True

    postsets: dict[str, list[str]] = {ename: [] for ename in events}
    for cname, (label, producer) in conditions.items():
        if producer:
            postsets[producer].append(cname)
    unfolding = net_from_arcs(
        {ename: (pre, postsets[ename]) for ename, (label, pre) in events.items()},
        places=conditions,
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
