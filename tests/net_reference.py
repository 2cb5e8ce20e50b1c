"""``Net`` as it was before it became its arc tables, kept as the reference
that ``nets.net_from_arcs`` is compared against.

This ``Net`` stores the arc set ``flow`` and rebuilds ``preset`` and
``postset`` from it when constructed, checking every arc in that pass.
Its ``net_from_arcs`` collects the places from the arcs, adds the listed
extras, and builds the arc set.  Both are verbatim copies; only the
imports changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from orchnet.errors import NetStructureError
from orchnet.nets import _cycle_node


@dataclass(frozen=True)
class Net:
    """A place/transition net with arc set ``flow`` and initial marking.

    Construction checks every arc and, in that same pass over ``flow``,
    fills ``preset`` and ``postset``: for each node, the nodes with an arc
    into it and the nodes with an arc out of it.
    """

    places: frozenset[str]
    transitions: frozenset[str]
    flow: frozenset[tuple[str, str]]
    initial_marking: frozenset[str]
    nodes: frozenset[str] = field(init=False, repr=False, compare=False)
    preset: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    postset: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        places = self.places
        overlap = places & self.transitions
        if overlap:
            raise NetStructureError(f"ids used as both place and transition: {sorted(overlap)}")
        nodes = places | self.transitions
        pre: dict[str, list[str]] = {n: [] for n in nodes}
        post: dict[str, list[str]] = {n: [] for n in nodes}
        for src, dst in self.flow:
            if src not in nodes or dst not in nodes:
                raise NetStructureError(f"arc ({src!r}, {dst!r}) references unknown node")
            if (src in places) == (dst in places):
                raise NetStructureError(f"arc ({src!r}, {dst!r}) is not place<->transition")
            pre[dst].append(src)
            post[src].append(dst)
        if not self.initial_marking <= places:
            extra = self.initial_marking - places
            raise NetStructureError(f"initial marking references unknown places: {sorted(extra)}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "preset", {n: frozenset(ns) for n, ns in pre.items()})
        object.__setattr__(self, "postset", {n: frozenset(ns) for n, ns in post.items()})

    @cached_property
    def minimal_places(self) -> frozenset[str]:
        return frozenset(p for p in self.places if not self.preset[p])

    @cached_property
    def maximal_places(self) -> frozenset[str]:
        return frozenset(p for p in self.places if not self.postset[p])

    def is_acyclic(self) -> bool:
        return _cycle_node(self) is None


def net_from_arcs(
    transitions: dict[str, tuple[tuple[str, ...], tuple[str, ...]]],
    places: tuple[str, ...] = (),
    marking: tuple[str, ...] | None = None,
) -> Net:
    """Build a net from {transition: (preset, postset)}.

    Places are collected from the arcs plus any explicitly listed extras.
    With ``marking=None`` the initial marking defaults to the minimal places.
    """
    place_set = set(places)
    flow = set()
    for t, (pre, post) in transitions.items():
        for p in pre:
            place_set.add(p)
            flow.add((p, t))
        for p in post:
            place_set.add(p)
            flow.add((t, p))
    if marking is None:
        produced = {p for _, (_, post) in transitions.items() for p in post}
        marking = tuple(p for p in place_set if p not in produced)
    return Net(
        places=frozenset(place_set),
        transitions=frozenset(transitions),
        flow=frozenset(flow),
        initial_marking=frozenset(marking),
    )
