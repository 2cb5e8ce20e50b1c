"""Net structure: occurrence conditions, relations, clusters,
configurations, workflow soundness.

Cluster and maximal-configuration results are cross-checked against
brute-force oracles (closure fixpoints, subset enumeration) on small
nets.
"""

import random
from itertools import combinations

import pytest

from orchnet.errors import CapExceededError, NetStructureError
from orchnet.nets import (
    Net,
    WorkflowNet,
    clusters,
    compute_relations,
    configuration_of,
    is_configuration,
    is_sound,
    maximal_configurations,
    maximal_transitions,
    net_from_arcs,
    require_occurrence_net,
    validate_occurrence_net,
)

from .randnets import random_workflow


def _overlap_cluster() -> Net:
    return net_from_arcs(
        {
            "a": (("p1",), ("q1",)),
            "b": (("p1", "p2"), ("q2",)),
            "c": (("p2",), ("q3",)),
            "d": (("q1",), ("r1",)),
            "e": (("q2",), ("r2",)),
            "f": (("q3",), ("r3",)),
        }
    )


# ---------------------------------------------------------------------------
# Occurrence conditions


def test_valid_occurrence_net_passes():
    check = validate_occurrence_net(_overlap_cluster())
    assert check.ok
    assert check.diagnostics == ()


def test_cycle_is_flagged():
    net = net_from_arcs({"a": (("p",), ("q",)), "b": (("q",), ("p",))})
    check = validate_occurrence_net(net)
    assert not check.ok
    assert "partial_order" in {d.condition for d in check.diagnostics}


def test_second_producer_is_flagged():
    net = net_from_arcs({"a": (("p",), ("x",)), "b": (("q",), ("x",))})
    check = validate_occurrence_net(net)
    assert not check.ok
    conds = {d.condition for d in check.diagnostics}
    assert "unique_producer" in conds


def test_marking_must_equal_minimal_places():
    net = net_from_arcs({"a": (("p",), ("q",))}, marking=("q",))
    check = validate_occurrence_net(net)
    assert not check.ok
    assert "initial_marking" in {d.condition for d in check.diagnostics}


def test_self_conflict_via_joined_rivals_is_flagged():
    # a and b race for p; c needs both outcomes, so c conflicts with itself
    net = net_from_arcs(
        {
            "a": (("p",), ("x",)),
            "b": (("p",), ("y",)),
            "c": (("x", "y"), ("z",)),
        }
    )
    check = validate_occurrence_net(net)
    assert not check.ok
    flagged = {
        node
        for d in check.diagnostics
        if d.condition == "no_self_conflict"
        for node in d.witness
    }
    assert {"c", "z"} <= flagged


def test_require_occurrence_net_raises_with_details():
    net = net_from_arcs({"a": (("p",), ("x",)), "b": (("q",), ("x",))})
    with pytest.raises(NetStructureError, match="unique_producer|producer"):
        require_occurrence_net(net)


def test_require_occurrence_net_computes_relations_once(monkeypatch):
    import orchnet.nets as nets

    calls = []
    real = nets.compute_relations

    def counting(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(nets, "compute_relations", counting)
    nets.occurrence_check.cache_clear()
    net = _overlap_cluster()
    rel = require_occurrence_net(net)
    assert len(calls) == 1
    assert rel.choices == real(net).choices
    require_occurrence_net(net)  # memoised per net
    assert len(calls) == 1
    nets.occurrence_check.cache_clear()


# ---------------------------------------------------------------------------
# Relations


def test_relation_partition_on_example():
    net = _overlap_cluster()
    rel = compute_relations(net)
    assert rel.relation("a", "d") == "lt"
    assert rel.relation("d", "a") == "gt"
    assert rel.relation("a", "b") == "conflict"
    assert rel.relation("a", "c") == "concurrent"
    assert rel.relation("a", "a") == "eq"
    # conflict is inherited downward
    assert rel.relation("d", "e") == "conflict"
    assert rel.relation("a", "r2") == "conflict"


def test_relations_partition_pairs_on_random_unfoldings():
    rng = random.Random(101)
    checked = 0
    for i in range(10):
        from orchnet import unfold

        g = random_workflow(rng, rng.randint(2, 6), name=f"rel{i}")
        unf = unfold(g.workflow).unfolding
        rel = compute_relations(unf)
        nodes = sorted(unf.nodes)
        for x in nodes:
            for y in nodes:
                r = rel.relation(x, y)
                mirror = rel.relation(y, x)
                expected = {"lt": "gt", "gt": "lt"}.get(r, r)
                assert mirror == expected, (x, y, r, mirror)
                checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# Clusters


def _brute_minimal_closed_sets(net: Net) -> set[frozenset[str]]:
    def close(seed: str) -> frozenset[str]:
        nodes = {seed}
        changed = True
        while changed:
            changed = False
            for t in net.transitions:
                if t in nodes and not net.preset[t] <= nodes:
                    nodes |= net.preset[t]
                    changed = True
                for p in net.preset[t]:
                    if p in nodes and t not in nodes:
                        nodes.add(t)
                        changed = True
        return frozenset(nodes)

    closures = {close(n) for n in net.nodes}
    return {c for c in closures if not any(d < c for d in closures)}


def test_clusters_match_brute_closures():
    nets = [
        _overlap_cluster(),
        net_from_arcs(
            {
                "a": (("p",), ("x",)),
                "b": (("p",), ("y",)),
                "c": (("q", "x"), ("z",)),
            }
        ),
        net_from_arcs({"solo": (("p",), ("q",))}),
    ]
    for net in nets:
        got = {c.nodes for c in clusters(net)}
        assert got == _brute_minimal_closed_sets(net)


def test_clusters_partition_the_nodes():
    net = _overlap_cluster()
    parts = clusters(net)
    seen: set[str] = set()
    for c in parts:
        assert not (c.nodes & seen)
        seen |= c.nodes
    assert seen == net.nodes


# ---------------------------------------------------------------------------
# Configurations


def _brute_maximal_configs(net: Net) -> set[frozenset[str]]:
    ts = sorted(net.transitions)
    configs = set()
    for r in range(len(ts) + 1):
        for sub in combinations(ts, r):
            nodes = configuration_of(net, frozenset(sub))
            if is_configuration(net, nodes):
                configs.add(nodes)
    return {c for c in configs if not any(c < d for d in configs)}


def test_maximal_configurations_match_subset_oracle():
    nets = [
        _overlap_cluster(),
        net_from_arcs(
            {
                "a": (("p",), ("x",)),
                "b": (("p",), ("y",)),
                "u": (("x",), ("x2",)),
                "v": (("y",), ("y2",)),
            }
        ),
    ]
    for net in nets:
        got = set(maximal_configurations(net))
        assert got == _brute_maximal_configs(net)


def test_overlap_cluster_has_two_maximal_configurations():
    net = _overlap_cluster()
    configs = maximal_configurations(net)
    fired = {frozenset(c & net.transitions) for c in configs}
    assert fired == {frozenset({"a", "c", "d", "f"}), frozenset({"b", "e"})}


def test_conflict_free_wide_net_does_not_blow_up():
    # without the forced include of unopposed transitions this would
    # explore 2**12 branches and trip the cap
    arcs = {f"t{i}": ((f"p{i}",), (f"q{i}",)) for i in range(12)}
    net = net_from_arcs(arcs)
    configs = maximal_configurations(net, cap=100)
    assert len(configs) == 1
    assert configs[0] == net.nodes


def test_maximal_configurations_cap_raises():
    # 8 independent binary choices: 256 maximal configurations
    arcs = {}
    for i in range(8):
        arcs[f"a{i}"] = ((f"p{i}",), (f"x{i}",))
        arcs[f"b{i}"] = ((f"p{i}",), (f"y{i}",))
    net = net_from_arcs(arcs)
    with pytest.raises(CapExceededError):
        maximal_configurations(net, cap=10)
    assert len(maximal_configurations(net, cap=10_000)) == 256


def test_maximal_transitions():
    net = _overlap_cluster()
    config = configuration_of(net, frozenset({"a", "c", "d", "f"}))
    assert maximal_transitions(net, config) == frozenset({"d", "f"})
    assert maximal_transitions(net, configuration_of(net, frozenset({"a"}))) == frozenset({"a"})


# ---------------------------------------------------------------------------
# Workflow nets and soundness


def test_workflow_shape_checks():
    net = net_from_arcs({"a": (("i",), ("p",)), "b": (("p",), ("o",))})
    wf = WorkflowNet.from_net(net)
    assert wf.source == "i"
    assert wf.sink == "o"

    with pytest.raises(NetStructureError):  # two sources
        WorkflowNet.from_net(net_from_arcs({"a": (("i1",), ("o",)), "b": (("i2",), ("o",))}))
    with pytest.raises(NetStructureError):  # cyclic
        WorkflowNet.from_net(
            net_from_arcs({"a": (("i",), ("p",)), "b": (("p",), ("p2",)), "c": (("p2",), ("p",))})
        )


def test_sound_workflow():
    wf = WorkflowNet.from_net(
        net_from_arcs({"a": (("i",), ("p",)), "b": (("p",), ("o",))})
    )
    verdict = is_sound(wf)
    assert verdict.status == "sound"
    assert verdict.issues == ()


def test_unsafe_workflow_is_flagged():
    # both AND branches feed the same place: two tokens collide in q
    wf = WorkflowNet.from_net(
        net_from_arcs(
            {
                "t0": (("i",), ("p1", "p2")),
                "a": (("p1",), ("q",)),
                "b": (("p2",), ("q",)),
                "c": (("q",), ("o",)),
            }
        )
    )
    verdict = is_sound(wf)
    assert verdict.status == "unsound"
    assert "not_safe" in {i.kind for i in verdict.issues}


def test_deadlocked_workflow_cannot_complete():
    # a and b race for p, but the join needs both outcomes
    wf = WorkflowNet.from_net(
        net_from_arcs(
            {
                "t0": (("i",), ("p", "r")),
                "a": (("p",), ("q1",)),
                "b": (("p",), ("q2",)),
                "join": (("q1", "q2", "r"), ("o",)),
            }
        )
    )
    verdict = is_sound(wf)
    assert verdict.status == "unsound"
    assert "cannot_complete" in {i.kind for i in verdict.issues}


def test_dead_transition_is_flagged():
    wf = WorkflowNet.from_net(
        net_from_arcs(
            {
                "a": (("i",), ("p1",)),
                "b": (("i",), ("p2",)),
                "c": (("p1",), ("o",)),
                "d": (("p2",), ("o",)),
                "t_dead": (("p1", "p2"), ("o",)),
            }
        )
    )
    verdict = is_sound(wf)
    assert verdict.status == "unsound"
    dead = [i for i in verdict.issues if i.kind == "dead_transition"]
    assert [i.transition for i in dead] == ["t_dead"]


def test_soundness_cap_yields_undecided():
    arcs = {"t0": (("i",), tuple(f"p{i}" for i in range(6)))}
    for i in range(6):
        arcs[f"t{i+1}"] = ((f"p{i}",), (f"q{i}",))
    arcs["join"] = (tuple(f"q{i}" for i in range(6)), ("o",))
    wf = WorkflowNet.from_net(net_from_arcs(arcs))
    verdict = is_sound(wf, marking_cap=5)
    assert verdict.status == "undecided"
    assert is_sound(wf).status == "sound"


def test_generated_workflows_are_sound():
    rng = random.Random(99)
    for i in range(25):
        g = random_workflow(rng, rng.randint(2, 8), name=f"sound{i}")
        assert is_sound(g.workflow).status == "sound"
