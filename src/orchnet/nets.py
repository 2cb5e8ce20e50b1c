"""Structural net core: safe nets, occurrence-net relations, clusters,
configurations, and workflow-net soundness.

Node identifiers are opaque strings, and markings of safe nets are sets of
places.  No global node order is kept: a net is walked in topological
order (``_flow_order``) where only "each node after its parents" matters.
Lexicographic order on ids is used where it carries meaning: the race
resolves ties by least id, maximal configurations are decided event by key
and come in the order of their sorted node tuples, clusters come in the
order of their least node, soundness tries its candidates sorted, and
``_cycle_node`` walks sorted ids for its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import CapExceededError, NetStructureError


@dataclass(frozen=True)
class Net:
    """A place/transition net as its arc tables, with an initial marking:
    ``preset[n]`` holds the nodes with an arc into node n, and ``postset[n]``
    those with an arc out of it.  ``net_from_arcs`` builds one and checks its
    arcs, and the arc set ``flow`` is derived.  Nets are equal when they have
    the same places, transitions, marking and arcs; the hash leaves the tables
    out."""

    places: frozenset[str]
    transitions: frozenset[str]
    initial_marking: frozenset[str]
    # with the same nodes, the same presets are the same arcs
    preset: dict[str, frozenset[str]] = field(repr=False, hash=False)
    postset: dict[str, frozenset[str]] = field(repr=False, compare=False)

    @cached_property
    def nodes(self) -> frozenset[str]:
        return self.places | self.transitions

    @property
    def flow(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            [(p, t) for t in self.transitions for p in self.preset[t]]
            + [(t, p) for t in self.transitions for p in self.postset[t]]
        )

    @cached_property
    def minimal_places(self) -> frozenset[str]:
        return frozenset(p for p in self.places if not self.preset[p])

    @cached_property
    def maximal_places(self) -> frozenset[str]:
        return frozenset(p for p in self.places if not self.postset[p])

    def is_acyclic(self) -> bool:
        return _cycle_node(self) is None


_EMPTY: frozenset[str] = frozenset()


def net_from_arcs(
    transitions: Mapping[str, tuple[Iterable[str], Iterable[str]]],
    places: Iterable[str] | None = None,
    marking: Iterable[str] | None = None,
) -> Net:
    """Build a net from {transition: (preset, postset)}, checking its arcs.

    The places default to those the arcs name, and the marking to the
    minimal places.  The first bad arc is reported: transitions in table
    order, each one's preset arcs and then its postset arcs, in sorted
    order.  A place with one producer or one consumer gets that
    transition's one-element set, shared by every place it is alone at.
    """
    if places is None:
        places = {p for pre, post in transitions.values() for p in (*pre, *post)}
    places = frozenset(places)
    if not places.isdisjoint(transitions):
        overlap = places.intersection(transitions)
        raise NetStructureError(f"ids used as both place and transition: {sorted(overlap)}")
    preset = dict.fromkeys(places, _EMPTY)
    postset = dict.fromkeys(places, _EMPTY)
    producers: dict[str, list[str]] = {}  # of the places with two or more
    consumers: dict[str, list[str]] = {}
    for t, (pre, post) in transitions.items():
        pre, post = frozenset(pre), frozenset(post)
        if not (pre <= places and post <= places):
            bad = pre - places
            p = min(bad or post - places)
            what = "is not place<->transition" if p in transitions else "references unknown node"
            raise NetStructureError(f"arc {(p, t) if bad else (t, p)!r} {what}")
        alone = frozenset((t,))
        # the same steps for t's preset places and its postset places,
        # written out twice: this loop runs once per arc
        for p in pre:
            if postset[p] is _EMPTY:
                postset[p] = alone
            elif p in consumers:
                consumers[p].append(t)
            else:
                consumers[p] = [*postset[p], t]
        for p in post:
            if preset[p] is _EMPTY:
                preset[p] = alone
            elif p in producers:
                producers[p].append(t)
            else:
                producers[p] = [*preset[p], t]
        preset[t] = pre
        postset[t] = post
    for table, many in ((preset, producers), (postset, consumers)):
        for p, ts in many.items():
            table[p] = frozenset(ts)
    if marking is None:
        marking = [p for p in places if preset[p] is _EMPTY]
    marking = frozenset(marking)
    if not marking <= places:
        raise NetStructureError(f"initial marking references unknown places: {sorted(marking - places)}")
    return Net(places, frozenset(transitions), marking, preset, postset)


def _cycle_node(net: Net) -> str | None:
    """Return a node on some directed flow cycle, or None."""
    color: dict[str, int] = {}
    post = net.postset

    for start in sorted(net.nodes):
        if color.get(start):
            continue
        stack = [(start, iter(sorted(post[start])))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, 0)
                if c == 1:
                    return nxt
                if c == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(sorted(post[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


# ---------------------------------------------------------------------------
# Causality, conflict, concurrency


@dataclass(frozen=True)
class NodeRelations:
    """Order and conflict structure of an acyclic net.

    ``compute_relations`` fills it in over one topological walk
    (``_flow_order``), in time and space near-linear in the net:

    - ``choices[x]``: for each *choice place* (a place with two or more
      consumers) that has a consumer in [x], the causal past of x with x
      itself, that consumer.  A node with one parent shares its parent's
      dict, so the maps are never mutated; in a net without choice places
      every node shares one empty dict.
    - ``self_conflicting``: the nodes x with x # x, whose past holds two
      consumers of one place.

    Two nodes are in conflict when their choice maps disagree on a place.
    That is exact unless one of the nodes is self-conflicting, which an
    occurrence net rules out: such a node's map names one of its rival
    consumers only.

    Causality is read off the preset on demand: ``cone`` walks back from a
    node, and ``lt``, ``leq`` and ``relation`` read it.  No node order and
    nothing of size O(N^2) is stored.
    """

    net: Net
    choices: dict[str, dict[str, str]]
    self_conflicting: frozenset[str]

    def cone(self, x: str) -> frozenset[str]:
        """[x]: the causal past of x, x included, as the backward closure of
        x over the preset."""
        pre = self.net.preset
        past = {x}
        todo = [x]
        while todo:
            for parent in pre[todo.pop()]:
                if parent not in past:
                    past.add(parent)
                    todo.append(parent)
        return frozenset(past)

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def leq(self, x: str, y: str) -> bool:
        return x == y or x in self.cone(y)

    def in_conflict(self, x: str, y: str) -> bool:
        return self.in_conflict_with(x, self.choices[y])

    def in_conflict_with(self, x: str, chosen: dict[str, str]) -> bool:
        """Whether [x] holds a consumer of some place of ``chosen`` other
        than the one it maps that place to."""
        mine = self.choices[x]
        if mine is chosen:
            return False
        if len(chosen) < len(mine):
            mine, chosen = chosen, mine
        return any(chosen.get(p, t) != t for p, t in mine.items())

    def relation(self, x: str, y: str) -> str:
        """One of "eq", "lt", "gt", "conflict", "concurrent"."""
        if x == y:
            return "eq"
        if self.lt(x, y):
            return "lt"
        if self.lt(y, x):
            return "gt"
        if self.in_conflict(x, y):
            return "conflict"
        return "concurrent"


_NO_CHOICES: dict = {}


def merge_choices(maps, own=()) -> tuple[dict, bool]:
    """The union of choice maps, plus the ``own`` (choice, consumer) pairs
    of the node being added.

    Returns the union and whether it clashes: two maps send one choice to
    different consumers (their nodes are in conflict), or an ``own`` choice
    is already a key (it was consumed in the node's own past).  Maps are
    never mutated: the largest one is returned as is when nothing is added
    to it, and copied otherwise.
    """
    if len(maps) == 1 and not own:
        return maps[0], False  # most nodes: share the one parent's map
    # parents often share one map object: merge each object once
    maps = {id(m): m for m in maps}.values()
    merged = base = max(maps, key=len, default=_NO_CHOICES)
    clash = False
    for m in maps:
        if m is base:
            continue
        for p, t in m.items():
            have = merged.get(p)
            if have is None:
                if merged is base:
                    merged = dict(base)
                merged[p] = t
            elif have != t:
                clash = True
    for p, t in own:
        if p in merged:
            clash = True
        else:
            if merged is base:
                merged = dict(base)
            merged[p] = t
    return merged, clash


def compute_relations(net: Net) -> NodeRelations:
    """Causality/conflict structure; requires an acyclic flow graph."""
    order = _flow_order(net)
    pre, post = net.preset, net.postset
    choice_places = frozenset(p for p in net.places if len(post[p]) > 1)
    if not choice_places:
        # no past holds a choice, so no node can be in conflict
        return NodeRelations(net=net, choices=dict.fromkeys(order, _NO_CHOICES), self_conflicting=_EMPTY)
    choices: dict[str, dict[str, str]] = {}
    conflicted: set[str] = set()
    for node in order:
        # a place's parents are its producers, a transition's its preset;
        # acyclicity keeps node out of its parents' pasts
        parents = pre[node]
        if len(parents) == 1:
            (parent,) = parents
            if parent not in choice_places:  # most nodes: share the parent's map
                choices[node] = choices[parent]
                if parent in conflicted:
                    conflicted.add(node)
                continue
        merged, clash = merge_choices(
            [choices[parent] for parent in parents],
            [(p, node) for p in parents if p in choice_places],
        )
        choices[node] = merged
        if clash or not conflicted.isdisjoint(parents):
            conflicted.add(node)
    return NodeRelations(net=net, choices=choices, self_conflicting=frozenset(conflicted))


def _flow_order(net: Net) -> list[str]:
    """Every node, each after its parents: Kahn's walk ("Topological sorting
    of large networks", CACM 1962), taking ready nodes first in, first out."""
    pre, post = net.preset, net.postset
    waiting = {n: len(ps) for n, ps in pre.items()}
    order = [n for n, k in waiting.items() if not k]
    for node in order:  # grows as nodes become ready
        for nxt in post[node]:
            k = waiting[nxt] - 1
            waiting[nxt] = k
            if not k:
                order.append(nxt)
    if len(order) != len(waiting):
        raise NetStructureError(f"flow graph has a cycle through {_cycle_node(net)!r}")
    return order


# ---------------------------------------------------------------------------
# Occurrence-net validation


@dataclass(frozen=True)
class Diagnostic:
    condition: str
    witness: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class OccurrenceCheck:
    ok: bool
    diagnostics: tuple[Diagnostic, ...]
    # the causality/conflict tables, computed whenever the flow is acyclic
    relations: NodeRelations | None = field(default=None, compare=False, repr=False)


def validate_occurrence_net(net: Net) -> OccurrenceCheck:
    """Check the four occurrence-net conditions, reporting every violation.

    Conditions: no self-conflict; causality is a partial order (acyclic
    flow); at most one producer per place; the initial marking is exactly
    the set of minimal places.
    """
    diags: list[Diagnostic] = []

    rel = cyc = None
    try:
        rel = compute_relations(net)
    except NetStructureError:
        cyc = _cycle_node(net)
    if cyc is not None:
        diags.append(
            Diagnostic(
                condition="partial_order",
                witness=(cyc,),
                message=f"flow graph has a cycle through {cyc!r}",
            )
        )

    pre = net.preset
    for p in sorted(p for p in net.places if len(pre[p]) > 1):
        diags.append(
            Diagnostic(
                condition="unique_producer",
                witness=(p, *sorted(pre[p])),
                message=f"place {p!r} has {len(pre[p])} producers",
            )
        )

    minimal = net.minimal_places
    if net.initial_marking != minimal:
        missing = sorted(minimal - net.initial_marking)
        extra = sorted(net.initial_marking - minimal)
        diags.append(
            Diagnostic(
                condition="initial_marking",
                witness=tuple(missing + extra),
                message=f"initial marking must equal the minimal places (missing {missing}, extra {extra})",
            )
        )

    if rel is not None:
        for x in sorted(rel.self_conflicting):
            diags.append(
                Diagnostic(
                    condition="no_self_conflict",
                    witness=(x,),
                    message=f"node {x!r} is in conflict with itself",
                )
            )

    return OccurrenceCheck(ok=not diags, diagnostics=tuple(diags), relations=rel)


@lru_cache(maxsize=512)
def occurrence_check(net: Net) -> OccurrenceCheck:
    """``validate_occurrence_net(net)``, memoized: family members share one
    net, so validation and the relation tables are computed once per net,
    not once per member."""
    return validate_occurrence_net(net)


def require_occurrence_net(net: Net) -> NodeRelations:
    """The relation tables of ``net``; NetStructureError unless it is an
    occurrence net."""
    check = occurrence_check(net)
    if not check.ok:
        msgs = "; ".join(d.message for d in check.diagnostics)
        raise NetStructureError(f"not an occurrence net: {msgs}")
    return check.relations


# ---------------------------------------------------------------------------
# Clusters


@dataclass(frozen=True)
class Cluster:
    nodes: frozenset[str]
    transitions: frozenset[str]
    places: frozenset[str]


def clusters(net: Net, start: Iterable[str] | None = None) -> tuple[Cluster, ...]:
    """Partition the nodes into minimal closed sets.

    A set is closed when it contains the preset of each of its transitions
    and every consumer of each of its places.  Since "p in preset of t" and
    "t consumes p" are the same arcs read both ways, the minimal closed sets
    are the connected components of the place-to-consumer incidence graph,
    each found in one traversal and given in the order of its least node.
    Components without transitions are degenerate (unconsumed places).

    With ``start``, only the components of those transitions are found, in
    the same traversal and order, and no degenerate one.
    """
    pre, post = net.preset, net.postset
    seen: set[str] = set()
    found: list[Cluster] = []
    for t in net.transitions if start is None else start:
        if t in seen:
            continue
        seen.add(t)
        ps, ts = [], [t]
        todo = [t]
        while todo:
            for p in pre[todo.pop()]:
                if p not in seen:
                    seen.add(p)
                    ps.append(p)
                    for u in post[p]:  # its consumers
                        if u not in seen:
                            seen.add(u)
                            ts.append(u)
                            todo.append(u)
        found.append(Cluster(nodes=frozenset(ps + ts), transitions=frozenset(ts), places=frozenset(ps)))
    if start is None:
        for p in net.places - seen:  # consumed by no transition
            alone = frozenset((p,))
            found.append(Cluster(nodes=alone, transitions=_EMPTY, places=alone))
    found.sort(key=lambda c: min(c.nodes))
    return tuple(found)


# ---------------------------------------------------------------------------
# Configurations


def is_causally_closed(net: Net, nodes: frozenset[str]) -> bool:
    # closure under preset is closure under its transitive closure, the past
    return all(net.preset[n] <= nodes for n in nodes)


def is_conflict_free(net: Net, nodes: frozenset[str]) -> bool:
    """No place has two consumers in ``nodes``.  Pairs in the causal past
    are covered too, since a configuration is causally closed."""
    consumed: set[str] = set()
    for t in nodes & net.transitions:
        pre = net.preset[t]
        if not consumed.isdisjoint(pre):
            return False
        consumed |= pre
    return True


def is_configuration(net: Net, nodes: frozenset[str]) -> bool:
    """Causally closed, conflict free, and maximal nodes are places."""
    if not nodes <= net.nodes:
        return False
    if not is_causally_closed(net, nodes):
        return False
    if not is_conflict_free(net, nodes):
        return False
    for t in nodes & net.transitions:
        if not net.postset[t] <= nodes:
            return False
    return True


def configuration_of(net: Net, fired: frozenset[str]) -> frozenset[str]:
    """The configuration spanned by a downward-closed set of transitions:
    their pre/postsets plus every minimal place."""
    nodes = set(net.minimal_places)
    for t in fired:
        nodes.add(t)
        nodes |= net.preset[t]
        nodes |= net.postset[t]
    return frozenset(nodes)


def maximal_transitions(net: Net, nodes: frozenset[str]) -> frozenset[str]:
    """Transitions of a causally closed set with no later transition inside
    it: no transition of the set consumes a place of their postset."""
    ts = nodes & net.transitions
    return frozenset(t for t in ts if not any(net.postset[p] & ts for p in net.postset[t]))


_IN, _OUT = 1, 2


def iter_maximal_configurations(
    net: Net, cap: int = 100_000, forbidden: frozenset[str] = frozenset()
) -> Iterator[frozenset[str]]:
    """The maximal configurations of the occurrence net ``net`` that hold no
    event of ``forbidden``, as node sets, yielded one at a time in the
    order of their sorted node tuples.

    Two maximal configurations are never nested, so A sorts before B when
    the least node of their difference lies in A.  A configuration is its
    minimal places plus its events F plus post(F), and a place has one
    producer, so that node is the key of the key-least event in
    F_A ^ F_B, where ``key(e) = min({e} | post(e))``.  The search therefore
    decides events in ascending key, include before exclude:

    - including e brings in its causal past, and puts out the other
      consumers of their presets, with their futures;
    - excluding e puts out its future;
    - then come the forced moves: an undecided event whose preset is
      produced, with no other live consumer, goes in; an out event whose
      rivals are all out and whose preset has one unproduced place puts
      that place's producer out.  Either event would stay enabled
      otherwise.
    - a branch is cut as soon as an out event has its whole preset
      produced and all its rivals out: it would stay enabled, so no
      maximal configuration lies below.  The same test makes every leaf
      maximal.

    Forced moves drop only branches without a maximal configuration, so
    the order stands.  An include that would take a forbidden event (e, an
    event of its undecided past, or a forced one) cuts its branch before
    any state changes: every configuration below holds that event.  So the
    search yields the others in the same order, and visits no more nodes
    than without ``forbidden``.  The search is lazy: a caller that stops
    early pays only for the configurations it took.  Raises
    CapExceededError once the search visits more than ``cap`` nodes: the
    root plus one per branch taken, so at least one per configuration
    yielded.
    """
    require_occurrence_net(net)  # memoized per net
    # a place's preset is its producer, if any, and its postset its consumers
    pre, post = net.preset, net.postset
    events = sorted(net.transitions, key=lambda t: min((t, *post[t])))
    n = len(events)
    status = dict.fromkeys(events, 0)  # 0 undecided, _IN or _OUT
    produced = set(net.minimal_places)
    live = {p: len(post[p]) for p in net.places}  # consumers not out
    # places of pre(e) with a consumer not out, and those not dead (dead:
    # produced, every consumer out)
    rivalled = {t: len(pre[t]) for t in events}
    need = dict(rivalled)
    # forced moves still to make.  ``free``: events to check for having
    # each place of their preset produced, with no other live consumer;
    # such an event must go in, or it would stay enabled.  ``unit``: out
    # events with no live rival and one unproduced place in their preset,
    # whose producer must therefore go out.  An out event with no live
    # rival and its whole preset produced is stuck: the branch is cut.
    free: list[str] = list(events)
    unit: list[str] = []
    trail: list[str] = []  # events in the order they were decided

    def exclude(todo: list[str]) -> bool:
        """Put the events of ``todo`` and their futures out; False when
        some event gets stuck."""
        while todo:
            x = todo.pop()
            if status[x]:
                continue
            status[x] = _OUT
            trail.append(x)
            stuck = False  # an event with no preset went in at the root
            for p in pre[x]:
                live[p] -= 1
                if live[p] == 1:
                    if p in produced:
                        free.extend(post[p])
                elif not live[p]:
                    dead = p in produced
                    for c in post[p]:
                        rivalled[c] -= 1
                        need[c] -= dead
                        if not rivalled[c]:
                            if not need[c]:
                                stuck = True
                            elif need[c] == 1:
                                unit.append(c)
            if stuck:
                return False
            for p in post[x]:
                todo += post[p]
        return True

    def include(e: str) -> bool:
        """Put e and its past in, and their rivals out; False when some
        event gets stuck, or, with nothing changed, when e or its past is
        forbidden."""
        past = [e]
        if not produced.issuperset(pre[e]):
            seen = {e}
            for x in past:  # grows while read: the undecided past of e
                for p in pre[x]:
                    for q in pre[p]:
                        if not status[q] and q not in seen:
                            seen.add(q)
                            past.append(q)
        if forbidden and not forbidden.isdisjoint(past):
            return False
        for x in past:
            status[x] = _IN
            trail.append(x)
            stuck = False
            for p in post[x]:
                produced.add(p)
                if live[p] == 1:
                    free.extend(post[p])
                elif not live[p]:
                    for c in post[p]:
                        need[c] -= 1
                        if not rivalled[c]:
                            if not need[c]:
                                stuck = True
                            elif need[c] == 1:
                                unit.append(c)
            if stuck:
                return False
        # the rivals still undecided: x is a live consumer of p, so another
        # one is left when live[p] > 1
        return exclude([r for x in past for p in pre[x] if live[p] > 1 for r in post[p]])

    def settle() -> bool:
        """Make the forced moves; False when some event gets stuck."""
        while unit or free:
            if unit:
                if not exclude([q for p in pre[unit.pop()] if p not in produced for q in pre[p]]):
                    return False
                continue
            e = free.pop()
            if status[e]:
                continue
            for p in pre[e]:
                if live[p] > 1 or p not in produced:
                    break
            else:
                if not include(e):
                    return False
        return True

    def undo(mark: int) -> None:
        free.clear()
        unit.clear()
        while len(trail) > mark:
            x = trail.pop()
            if status[x] == _IN:
                for p in post[x]:
                    if not live[p]:
                        for c in post[p]:
                            need[c] += 1
                    produced.discard(p)
            else:
                for p in pre[x]:
                    if not live[p]:
                        dead = p in produced
                        for c in post[p]:
                            rivalled[c] += 1
                            need[c] += dead
                    live[p] += 1
            status[x] = 0

    visited = 1
    frames: list[tuple[int, int]] = []  # (event index, trail mark) still to exclude
    k, ok = 0, settle()
    while True:
        if visited > cap:
            raise CapExceededError(f"maximal-configuration search exceeded cap {cap}")
        if ok:
            while k < n and status[events[k]]:
                k += 1
            if k == n:
                fired = [x for x in trail if status[x] == _IN]
                yield frozenset(net.minimal_places.union(fired, *[post[x] for x in fired]))
                ok = False
                continue
            visited += 1
            frames.append((k, len(trail)))
            ok = include(events[k]) and settle()
        elif frames:
            k, mark = frames.pop()
            undo(mark)
            visited += 1
            ok = exclude([events[k]]) and settle()
        else:
            return


def maximal_configurations(net: Net, cap: int = 100_000) -> tuple[frozenset[str], ...]:
    """All maximal configurations of the occurrence net ``net``, as node
    sets, sorted by their sorted node tuples: the whole of
    ``iter_maximal_configurations(net, cap)``.  A caller that may stop
    early should iterate that instead, since it searches lazily.  Raises
    CapExceededError once the search visits more than ``cap`` nodes (the
    root plus one per branch taken)."""
    return tuple(iter_maximal_configurations(net, cap))


# ---------------------------------------------------------------------------
# Workflow nets and soundness


@dataclass(frozen=True)
class WorkflowNet:
    """An acyclic net with a unique source place and unique sink place.

    The initial marking is the singleton source.  Every transition must have
    a nonempty preset and postset (a presetless transition breaks 1-safety,
    a postsetless one cannot sit on a source-to-sink path).
    """

    net: Net
    source: str
    sink: str

    @staticmethod
    def from_net(net: Net) -> "WorkflowNet":
        problems: list[str] = []
        cyc = _cycle_node(net)
        if cyc is not None:
            problems.append(f"flow graph has a cycle through {cyc!r}")
        minimal = sorted(net.minimal_places)
        maximal = sorted(net.maximal_places)
        if len(minimal) != 1:
            problems.append(f"expected a unique minimal place, found {minimal}")
        if len(maximal) != 1:
            problems.append(f"expected a unique maximal place, found {maximal}")
        for t in sorted(net.transitions):
            if not net.preset[t]:
                problems.append(f"transition {t!r} has an empty preset")
            if not net.postset[t]:
                problems.append(f"transition {t!r} has an empty postset")
        if problems:
            raise NetStructureError("not a workflow net: " + "; ".join(problems))
        source, sink = minimal[0], maximal[0]
        if net.initial_marking != frozenset({source}):
            raise NetStructureError(
                f"workflow initial marking must be {{{source!r}}}, got {sorted(net.initial_marking)}"
            )
        return WorkflowNet(net=net, source=source, sink=sink)


@dataclass(frozen=True)
class SoundnessIssue:
    kind: str  # "not_safe" | "cannot_complete" | "improper_completion" | "dead_transition"
    marking: tuple[str, ...] = field(default=())
    transition: str | None = None
    message: str = ""


@dataclass(frozen=True)
class SoundnessVerdict:
    status: str  # "sound" | "unsound" | "undecided"
    issues: tuple[SoundnessIssue, ...]
    markings_explored: int


def is_sound(wf: WorkflowNet, marking_cap: int = 1_000_000) -> SoundnessVerdict:
    """Exhaustive marking-graph soundness check.

    Verifies, over the full reachability graph from the source marking:
    1-safety (no firing doubles a token), option to complete (every
    reachable marking can still mark the sink), proper completion (a marking
    containing the sink is exactly the sink), and absence of dead
    transitions.  Exceeding ``marking_cap`` yields status "undecided".

    The walk is breadth-first.  At each marking only the consumers of its
    places, and the transitions with an empty preset, are tried, in sorted
    order; option to complete is one backward pass over the predecessor
    edges from the markings that hold the sink.
    """
    net = wf.net
    pre, post = net.preset, net.postset
    presetless = [t for t in net.transitions if not pre[t]]
    start = frozenset({wf.source})
    number = {start: 0}  # marking -> its place in the walk
    markings = [start]
    preds: list[list[int]] = [[]]  # per marking, the markings one step before it
    fired_somewhere: set[str] = set()
    issues: list[SoundnessIssue] = []

    i = 0  # FIFO: markings[i:] are waiting
    while i < len(markings):
        if len(markings) > marking_cap:
            return SoundnessVerdict(
                status="undecided",
                issues=(
                    SoundnessIssue(
                        kind="cap",
                        message=f"marking exploration exceeded cap {marking_cap}",
                    ),
                ),
                markings_explored=len(markings),
            )
        marking = markings[i]
        candidates = set(presetless)
        for p in marking:
            candidates.update(post.get(p, _EMPTY))
        for t in sorted(candidates):
            if not pre[t] <= marking:
                continue
            residue = marking - pre[t]
            collision = residue & post[t]
            if collision:
                issues.append(
                    SoundnessIssue(
                        kind="not_safe",
                        marking=tuple(sorted(marking)),
                        transition=t,
                        message=f"firing {t!r} at {sorted(marking)} doubles token on {sorted(collision)}",
                    )
                )
                continue
            nxt = residue | post[t]
            fired_somewhere.add(t)
            j = number.get(nxt)
            if j is None:
                j = number[nxt] = len(markings)
                markings.append(nxt)
                preds.append([])
            preds[j].append(i)
        i += 1

    if issues:
        # an unsafe net is outside the class this check decides
        return SoundnessVerdict(status="unsound", issues=tuple(issues), markings_explored=len(markings))

    # option to complete: "can reach a sink-marked marking", backwards
    finished = [j for j, m in enumerate(markings) if wf.sink in m]
    good = [False] * len(markings)
    for j in finished:
        good[j] = True
    todo = finished[:]
    while todo:
        for k in preds[todo.pop()]:
            if not good[k]:
                good[k] = True
                todo.append(k)
    for key in sorted(tuple(sorted(m)) for m, ok in zip(markings, good) if not ok):
        issues.append(
            SoundnessIssue(
                kind="cannot_complete",
                marking=key,
                message=f"marking {list(key)} cannot reach the sink {wf.sink!r}",
            )
        )

    for key in sorted(tuple(sorted(markings[j])) for j in finished if len(markings[j]) > 1):
        issues.append(
            SoundnessIssue(
                kind="improper_completion",
                marking=key,
                message=f"marking {list(key)} contains the sink alongside other tokens",
            )
        )

    for t in sorted(net.transitions - fired_somewhere):
        issues.append(
            SoundnessIssue(
                kind="dead_transition",
                transition=t,
                message=f"transition {t!r} is dead (never enabled)",
            )
        )

    status = "sound" if not issues else "unsound"
    return SoundnessVerdict(status=status, issues=tuple(issues), markings_explored=len(markings))
