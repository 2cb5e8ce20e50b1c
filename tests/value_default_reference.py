"""The value-function default as it stood when every transition stored one:
the reference that ``tests/test_value_default.py`` compares the package
against.

A transition that declares no value function gives the atom of its
carrier transition.  Before the package stored only declared value
functions, ``carrier_specs`` built ``const_value_fn(atom(t))`` for every
such transition ``t``, ``induced_preorchnet`` copied it onto each of its
events, and ``document_from_orchnet`` built that default again to compare
it with each transition's value function.  ``explicit_family`` gives the
family of that time, and ``document_from_orchnet`` is its serialiser,
unchanged.
"""

from __future__ import annotations

from dataclasses import replace

from orchnet.attributes import atom
from orchnet.document import BuiltDocument, NetDocument, PlaceDecl, TransitionDecl
from orchnet.specs import const_value_fn
from orchnet.timed import OrchNet, PreOrchNet


def explicit_family(built: BuiltDocument) -> PreOrchNet:
    """``built.pre`` with a value function stored for every event: its
    carrier transition's declared one, or ``const_value_fn(atom(phi[e]))``."""
    phi = built.unfolding.morphism.node_map
    declared = built.specs.value_fn
    value_fn = {}
    for e in built.pre.net.transitions:
        t = phi[e]
        value_fn[e] = declared[t] if t in declared else const_value_fn(atom(t))
    return replace(built.pre, value_fn=value_fn)


def document_from_orchnet(orch: OrchNet, kind: str = "occurrence") -> NetDocument:
    net = orch.net
    places = []
    for p in sorted(net.places):
        initial_date = orch.initial_date.get(p) if p in net.minimal_places else None
        initial_value = None
        if p in net.minimal_places:
            declared = orch.initial_value.get(p)
            if declared is not None and declared != atom(p):
                initial_value = declared
        places.append(PlaceDecl(id=p, initial_date=initial_date, initial_value=initial_value))
    transitions = []
    for t in sorted(net.transitions):
        vf = orch.value_fn[t]
        if vf == const_value_fn(atom(t)):
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
        kind=kind,
        omega_count=orch.omega_count,
        places=tuple(places),
        transitions=tuple(transitions),
    )
