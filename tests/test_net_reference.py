"""Differential test: ``net_from_arcs`` against the flow-based ``Net``.

The reference (``tests/net_reference.py``) stores the arc set and
rebuilds the tables from it.  The one constructor takes the tables.  On
the random nets of ``test_relations_reference`` (cycles, places with
several producers, isolated nodes, odd markings) and on the arc tables of
``randnets`` draws, both must give the same nodes, tables, minimal and
maximal places, arcs and equalities.  On malformed input with one fault
they must give the same error message.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orchnet import NetStructureError, net_from_arcs

from . import net_reference, randnets
from .test_relations_reference import random_tables

ROOT = Path(__file__).resolve().parent.parent


def reference_net(tables, places, marking):
    flow = {(p, t) for t, (pre, _) in tables.items() for p in pre}
    flow |= {(t, p) for t, (_, post) in tables.items() for p in post}
    return net_reference.Net(
        places=frozenset(places),
        transitions=frozenset(tables),
        flow=frozenset(flow),
        initial_marking=frozenset(marking),
    )


def assert_same_net(net, ref) -> None:
    assert net.places == ref.places
    assert net.transitions == ref.transitions
    assert net.initial_marking == ref.initial_marking
    assert net.nodes == ref.nodes
    assert net.preset == ref.preset
    assert net.postset == ref.postset
    assert net.minimal_places == ref.minimal_places
    assert net.maximal_places == ref.maximal_places
    assert net.flow == ref.flow
    # a place with one producer or one consumer shares that transition's
    # one-element set with every other place it is alone at
    alone = {}
    for table in (net.preset, net.postset):
        for p in net.places:
            if len(table[p]) == 1:
                assert alone.setdefault(next(iter(table[p])), table[p]) is table[p]


def drawn_tables(count: int):
    """The arc tables of ``randnets`` draws of 2-12 transitions."""
    drawn = []

    def keep(arcs):
        drawn.append(arcs)
        return net_from_arcs(arcs)

    rng = random.Random(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randnets, "net_from_arcs", keep)
        for _ in range(count):
            randnets.random_shape(rng, rng.randint(2, 12))
    return drawn


def inputs():
    """(tables, places, marking) triples: random nets, then draws."""
    rng = random.Random(20260823)
    triples = [random_tables(rng) for _ in range(300)]
    for tables in drawn_tables(100):
        places = {p for pre, post in tables.values() for p in (*pre, *post)}
        produced = {p for _, post in tables.values() for p in post}
        triples.append((tables, places, places - produced))
    return triples


def test_tables_match_the_flow_reference():
    for tables, places, marking in inputs():
        net = net_from_arcs(tables, places=places, marking=marking)
        assert_same_net(net, reference_net(tables, places, marking))
        # the defaults: places from the arcs, the minimal places marked
        assert_same_net(net_from_arcs(tables), net_reference.net_from_arcs(tables))


def without_one_arc(tables, rng):
    arcs = [(t, side, p) for t, pair in tables.items() for side in (0, 1) for p in pair[side]]
    t, side, p = rng.choice(arcs)
    pair = [list(q) for q in tables[t]]
    pair[side].remove(p)
    return {**tables, t: tuple(pair)}


def test_equality_and_hash_match_the_flow_reference():
    rng = random.Random(7)
    triples = inputs()
    equal = 0
    for tables, places, marking in triples:
        variants = [
            (dict(reversed(tables.items())), places, marking),  # the same arcs
            (tables, places, set(marking) ^ set(sorted(places)[:1])),
            rng.choice(triples),
        ]
        if any(pre or post for pre, post in tables.values()):
            variants.append((without_one_arc(tables, rng), places, marking))
        a, ref_a = net_from_arcs(tables, places, marking), reference_net(tables, places, marking)
        for other in variants:
            b, ref_b = net_from_arcs(*other), reference_net(*other)
            assert (a == b) == (ref_a == ref_b)
            if a == b:
                assert hash(a) == hash(b)
                equal += 1
    assert equal >= len(triples)


def malformed(tables, places, marking, rng):
    """One fault each: an unknown node or a transition in a preset or
    postset, a place that is also a transition, a marked unknown place."""
    ts = sorted(tables)
    t = rng.choice(ts)
    pre, post = tables[t]
    for side, wrong in ((0, "zz"), (1, "zz"), (0, rng.choice(ts)), (1, rng.choice(ts))):
        pair = [list(pre), list(post)]
        pair[side].append(wrong)
        yield {**tables, t: tuple(pair)}, places, marking
    yield tables, set(places) | {t}, marking
    yield tables, places, set(marking) | {"zz"}


def test_malformed_nets_raise_the_reference_message():
    rng = random.Random(11)
    kinds = ("unknown node", "place<->transition", "both place and transition", "initial marking")
    seen = set()
    for tables, places, marking in inputs():
        if not tables:
            continue
        for bad in malformed(tables, places, marking, rng):
            with pytest.raises(NetStructureError) as ref_error:
                reference_net(*bad)
            with pytest.raises(NetStructureError) as error:
                net_from_arcs(*bad)
            assert str(error.value) == str(ref_error.value)
            seen.update(k for k in kinds if k in str(error.value))
    assert seen == set(kinds)


# the constructor's net has two bad arcs in one set-valued preset; the
# reference net is built from the arcs ('p', 'x'), ('y', 'a'), ('p', 'q')
_SEEDED = """
from orchnet import NetStructureError, net_from_arcs
from tests.net_reference import Net
try:
    net_from_arcs({"x": ({"p", "y", "a"}, {"q"}), "a": ((), ())}, places=("p", "q"))
except NetStructureError as exc:
    print(exc)
try:
    Net(places=frozenset("pq"), transitions=frozenset("a"),
        flow=frozenset({("p", "x"), ("y", "a"), ("p", "q")}), initial_marking=frozenset())
except NetStructureError as exc:
    print(exc)
"""


def test_the_first_bad_arc_does_not_depend_on_the_hash_seed():
    messages, reference = set(), set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"}
        out = subprocess.run(
            [sys.executable, "-c", _SEEDED], env=env, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.splitlines()
        messages.add(out[0])
        reference.add(out[1])
    assert messages == {"arc ('a', 'x') is not place<->transition"}
    assert len(reference) > 1
