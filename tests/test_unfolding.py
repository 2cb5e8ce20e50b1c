"""Unfolding construction: morphism laws, completeness, canonical naming,
the event cap."""

import json
import re
import time

import pytest

from orchnet import (
    CapExceededError,
    CarrierSpecs,
    Net,
    NetStructureError,
    WorkflowNet,
    build,
    configuration_of,
    const_latency,
    const_value_fn,
    induced_preorchnet,
    is_configuration,
    load_corpus,
    net_from_arcs,
    unfold,
)
from orchnet import unfolding as unfolding_module
from orchnet.attributes import atom
from orchnet.cli import main
from orchnet.nets import _flow_order

from .randnets import random_workflow, standard_corpus
from .test_relations_reference import ref_topological_order
from .unfold_reference import ref_unfold
import random


def _copies(result):
    hist = {}
    for e in result.unfolding.transitions:
        hist[result.morphism[e]] = hist.get(result.morphism[e], 0) + 1
    return hist


# ---------------------------------------------------------------------------
# Basic shapes


def test_occurrence_net_unfolds_to_isomorphic_copy():
    net = net_from_arcs(
        {
            "a": (("p",), ("q",)),
            "b": (("p",), ("r",)),
            "c": (("q",), ("s",)),
        }
    )
    result = unfold(net)
    unf = result.unfolding
    assert len(unf.places) == len(net.places)
    assert len(unf.transitions) == len(net.transitions)
    # one copy each, and the arc structure transfers through the morphism
    assert _copies(result) == {"a": 1, "b": 1, "c": 1}
    phi = result.morphism
    image_flow = {(phi[x], phi[y]) for x, y in unf.flow}
    assert image_flow == set(net.flow)


def test_duplicated_choice_duplicates_the_join():
    built = build(load_corpus("choice-join"))
    result = built.unfolding
    assert result is not None
    assert len(result.unfolding.places) == 7
    assert len(result.unfolding.transitions) == 5
    assert _copies(result) == {"t0": 1, "a": 1, "b": 1, "c": 2}


def test_node_names_are_canonical_hashes():
    built = build(load_corpus("choice-join"))
    unf = built.unfolding.unfolding
    for node in unf.nodes:
        assert re.fullmatch(r".+~[0-9a-f]{8}", node)
    # a second construction yields byte-identical node names
    again = unfold(WorkflowNet.from_net(built.carrier_net))
    assert again.unfolding.nodes == unf.nodes
    assert again.unfolding.flow == unf.flow


def test_cyclic_carrier_is_rejected():
    net = net_from_arcs({"a": (("p",), ("q",)), "b": (("q",), ("p",))}, marking=())
    with pytest.raises(NetStructureError, match="acyclic"):
        unfold(net)


# ---------------------------------------------------------------------------
# Soundness gate


def _deadlocking_workflow() -> WorkflowNet:
    # a and b race for c, but the join needs both outcomes
    net = net_from_arcs(
        {
            "s": (("i",), ("c",)),
            "a": (("c",), ("p1",)),
            "b": (("c",), ("p2",)),
            "j": (("p1", "p2"), ("o",)),
        }
    )
    return WorkflowNet.from_net(net)


def test_unsound_workflow_is_rejected_by_default():
    with pytest.raises(NetStructureError, match="sound"):
        unfold(_deadlocking_workflow())


def test_unsound_workflow_unfolds_for_diagnostics_when_asked():
    result = unfold(_deadlocking_workflow(), require_sound=False)
    labels = {result.morphism[e] for e in result.unfolding.transitions}
    # the join is never enabled: its preset conditions are in conflict
    assert labels == {"s", "a", "b"}


# ---------------------------------------------------------------------------
# Morphism laws on generated nets


def _random_results(count: int, seed: int = 7):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        gen = random_workflow(rng, size=2 + k % 3, name=f"m{k}")
        out.append((gen.workflow, unfold(gen.workflow)))
    return out


def test_morphism_preserves_kind_and_restricts_to_local_bijections():
    for wf, result in _random_results(12):
        net = wf.net
        unf = result.unfolding
        phi = result.morphism
        for c in unf.places:
            assert phi[c] in net.places
        for e in unf.transitions:
            assert phi[e] in net.transitions
            pre = [phi[c] for c in unf.preset[e]]
            post = [phi[c] for c in unf.postset[e]]
            assert sorted(pre) == sorted(net.preset[phi[e]])
            assert sorted(post) == sorted(net.postset[phi[e]])


def test_minimal_conditions_biject_with_initial_marking():
    for wf, result in _random_results(8, seed=11):
        unf = result.unfolding
        images = [result.morphism[c] for c in unf.minimal_places]
        assert sorted(images) == sorted(wf.net.initial_marking)


def test_no_two_events_share_label_and_preset():
    for _, result in _random_results(12, seed=13):
        unf = result.unfolding
        seen = set()
        for e in unf.transitions:
            key = (result.morphism[e], frozenset(unf.preset[e]))
            assert key not in seen
            seen.add(key)


@pytest.mark.parametrize("name", ["e", "z"], ids=["before", "after"])
def test_an_event_without_preset_is_concurrent_with_every_condition(name):
    # the q-condition has no past, so b joins it with the p-condition, whether
    # the presetless transition is taken before a or after it
    net = net_from_arcs({"a": (("i",), ("p",)), name: ((), ("q",)), "b": (("p", "q"), ("r",))})
    result = unfold(net)
    ref = ref_unfold(net)
    assert (result.unfolding, result.morphism) == (ref.unfolding, ref.morphism)
    assert sorted(result.morphism[e] for e in result.unfolding.transitions) == sorted(["a", "b", name])


# ---------------------------------------------------------------------------
# Completeness: configuration cuts sweep exactly the reachable markings


def _reachable_markings(net: Net) -> set[frozenset[str]]:
    seen = {net.initial_marking}
    frontier = [net.initial_marking]
    while frontier:
        marking = frontier.pop()
        for t in net.transitions:
            if net.preset[t] <= marking:
                nxt = (marking - net.preset[t]) | net.postset[t]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def _all_configuration_cuts(unf: Net) -> list[frozenset[str]]:
    events = sorted(unf.transitions)
    cuts = []
    for mask in range(1 << len(events)):
        fired = frozenset(e for i, e in enumerate(events) if mask >> i & 1)
        nodes = configuration_of(unf, fired)
        if nodes & unf.transitions != fired or not is_configuration(unf, nodes):
            continue
        consumed = frozenset().union(*(unf.preset[e] for e in fired)) if fired else frozenset()
        produced = frozenset().union(*(unf.postset[e] for e in fired)) if fired else frozenset()
        cuts.append((unf.minimal_places | produced) - consumed)
    return cuts


def test_cut_images_equal_reachable_markings():
    rng = random.Random(23)
    for k in range(6):
        wf = random_workflow(rng, size=2 + k % 3, name=f"c{k}").workflow
        result = unfold(wf)
        unf = result.unfolding
        phi = result.morphism
        images = set()
        for cut in _all_configuration_cuts(unf):
            labels = [phi[c] for c in cut]
            # cuts of a safe net's unfolding are injectively labeled
            assert len(labels) == len(set(labels))
            images.add(frozenset(labels))
        assert images == _reachable_markings(wf.net)


# ---------------------------------------------------------------------------
# k differing-postset choices in a row: 4 (2^k - 1) events


def choices_in_a_row(k: int) -> WorkflowNet:
    arcs = {}
    for i in range(k):
        arcs[f"a{i}"] = ((f"q{i}",), (f"m{i}",))
        arcs[f"b{i}"] = ((f"q{i}",), (f"n{i}",))
        arcs[f"c{i}"] = ((f"m{i}",), (f"q{i + 1}",))
        arcs[f"d{i}"] = ((f"n{i}",), (f"q{i + 1}",))
    return WorkflowNet.from_net(net_from_arcs(arcs))


def test_fourteen_choices_in_a_row_unfold_with_colliding_digests_widened():
    wf = choices_in_a_row(14)
    start = time.perf_counter()
    result = unfold(wf)
    elapsed = time.perf_counter() - start
    unf = result.unfolding
    assert len(unf.transitions) == 4 * (2**14 - 1)
    print(f"unfolded 14 choices in a row in {elapsed:.2f} s")

    # 8 hex characters, or 16 for the nodes of one label whose 8 collide
    short: dict[tuple[str, str], int] = {}
    wide = []
    for node in unf.nodes:
        label, digest = re.fullmatch(r"(.+)~([0-9a-f]{8}|[0-9a-f]{16})", node).groups()
        assert label == result.morphism[node]
        short[label, digest[:8]] = short.get((label, digest[:8]), 0) + 1
        if len(digest) == 16:
            wide.append((label, digest[:8]))
    assert wide, "the 8-character digests of this unfolding collide"
    assert all(short[key] > 1 for key in wide)
    assert sum(count > 1 for count in short.values()) == len(set(wide))

    # names are content hashes: a second construction gives the same net
    unfolding_module._unfold.cache_clear()
    again = unfold(choices_in_a_row(14))
    assert again is not result
    assert again.unfolding == unf and again.morphism == result.morphism


def test_twenty_choices_in_a_row_stop_at_the_event_cap():
    with pytest.raises(CapExceededError, match="event cap"):
        unfold(choices_in_a_row(20))


def _reversed_fifo_order(net: Net) -> list[str]:
    """Kahn's walk, first in, first out, with each batch of ready nodes
    queued in reversed id order."""
    waiting = {n: len(net.preset[n]) for n in net.nodes}
    order = sorted((n for n, k in waiting.items() if not k), reverse=True)
    for node in order:  # grows as nodes become ready
        for nxt in sorted(net.postset[node], reverse=True):
            waiting[nxt] -= 1
            if not waiting[nxt]:
                order.append(nxt)
    return order


def _named_tables(net: Net, order: list[str]):
    """The unfolding that ``_extend`` and ``_names`` build when the
    carrier's transitions are taken in ``order``: each named node's label,
    and each event's named preset and postset."""
    ts = [t for t in order if t in net.transitions]
    cond_label, cond_producer, ev_label, ev_preset = unfolding_module._extend(net, ts)
    cond_names, ev_names = unfolding_module._names(
        net, ts, cond_label, cond_producer, ev_label, ev_preset
    )
    labels = dict(zip(cond_names, cond_label)) | dict(zip(ev_names, ev_label))
    preset = {ev_names[e]: frozenset(cond_names[c] for c in combo) for e, combo in enumerate(ev_preset)}
    postset = {name: set() for name in ev_names}
    for c, e in enumerate(cond_producer):
        if e >= 0:
            postset[ev_names[e]].add(cond_names[c])
    return labels, preset, postset


def test_the_unfolding_does_not_depend_on_the_carrier_order():
    carriers = [gen.workflow.net for gen in standard_corpus()]
    carriers += [choices_in_a_row(k).net for k in range(1, 11)]
    for net in carriers:
        tables = [
            _named_tables(net, walk(net))
            for walk in (ref_topological_order, _flow_order, _reversed_fifo_order)
        ]
        assert tables[0] == tables[1] == tables[2]
    assert len(tables[0][1]) == 4 * (2**10 - 1)


def _workflow_document(wf: WorkflowNet) -> dict:
    net = wf.net
    return {
        "format_version": 1,
        "kind": "workflow",
        "omega_count": 1,
        "flags": {"upward_closed": True},
        "places": [{"id": p} for p in sorted(net.places)],
        "transitions": [
            {
                "id": t,
                "pre": sorted(net.preset[t]),
                "post": sorted(net.postset[t]),
                "latency": {"kind": "const", "value": "1"},
            }
            for t in sorted(net.transitions)
        ],
        "grids": {t: ["0", "1"] for t in sorted(net.transitions)},
    }


@pytest.mark.parametrize(
    "argv", [("unfold",), ("validate",), ("counterexample", "--omega", "0")]
)
def test_cli_reports_the_event_cap_as_undecided(capsys, tmp_path, argv):
    path = tmp_path / "choices20.net"
    path.write_text(json.dumps(_workflow_document(choices_in_a_row(20))))
    code = main([argv[0], str(path), *argv[1:]])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["error"]["kind"] == "cap"
    assert str(unfolding_module.EVENT_CAP) in report["error"]["message"]


# ---------------------------------------------------------------------------
# Spec transfer


def test_induced_specs_follow_the_morphism():
    wf = WorkflowNet.from_net(
        net_from_arcs(
            {
                "t0": (("i",), ("p1", "p2")),
                "a": (("p1",), ("p3",)),
                "b": (("p1",), ("p3",)),
                "c": (("p2", "p3"), ("o",)),
            }
        )
    )
    specs = CarrierSpecs(
        latency={t: const_latency(1) for t in "a b c t0".split()},
        value_fn={t: const_value_fn(atom(t)) for t in "a b c t0".split()},
        initial_date={"i": const_latency(0)},
        latency_class={"a": "fast", "b": "fast"},
        class_grid={"fast": (0, 1), "c": (0, 1), "t0": (0, 1)},
        omega_count=3,
        upward_closed=True,
    )
    result = unfold(wf)
    pre = induced_preorchnet(result, specs)
    assert pre.omega_count == 3
    assert pre.upward_closed
    # declared classes pool copies across members; defaults pool per label
    by_label = {}
    for e in pre.net.transitions:
        by_label.setdefault(result.morphism[e], set()).add(e)
    assert pre.classes["fast"] == frozenset(by_label["a"] | by_label["b"])
    assert pre.classes["c"] == frozenset(by_label["c"])
    assert set(pre.class_grid) == {"fast", "c", "t0"}
    for e in pre.net.transitions:
        assert pre.value_fn[e] == specs.value_fn[result.morphism[e]]
    for c in pre.net.minimal_places:
        assert pre.initial_value[c] == atom("i")
