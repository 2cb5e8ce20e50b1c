"""Monotony deciders: structural, global, oracle, synthesis, conditional."""

import json
import random
from dataclasses import replace

import pytest

from orchnet import (
    DATE_INF,
    INFINITE_LATENCY,
    NetStructureError,
    OrchNet,
    PreOrchNet,
    SynthesisError,
    atom,
    brute_force_monotony,
    build,
    check_distinct_values,
    check_global_condition,
    conditional_monotony_check,
    const_latency,
    const_value_fn,
    date_of,
    load_corpus,
    loads,
    net_from_arcs,
    num,
    structural_check,
    synthesize_counterexample,
    unfold,
    verify_counterexample,
)

from orchnet.attributes import value_sort_key

from .randnets import grid_members, random_workflow
from .test_sweep_reference import dominates


def _built(name):
    return build(load_corpus(name))


def _member(name):
    return _built(name).pre.baseline()


# ---------------------------------------------------------------------------
# Structural cluster condition


def test_branch_race_violates_the_cluster_condition():
    report = structural_check(_built("branch-race").carrier_net)
    assert not report.satisfied
    assert len(report.violations) == 1
    assert ("a", "b") in report.violations[0].pairs


def test_choice_join_satisfies_the_cluster_condition():
    report = structural_check(_built("choice-join").carrier)
    assert report.satisfied
    assert report.clusters_checked >= 3


def test_overlap_cluster_reports_only_preset_sharing_pairs():
    report = structural_check(_built("overlap-cluster").carrier_net)
    assert not report.satisfied
    (violation,) = report.violations
    # a and c never share a preset place, so they are not a direct pair
    assert set(violation.pairs) == {("a", "b"), ("b", "c")}
    assert {"a", "b", "c", "p1", "p2"} <= set(violation.cluster)


def test_equal_postsets_keep_a_racing_cluster_legal():
    net = net_from_arcs({"a": (("p",), ("q",)), "b": (("p",), ("q",))})
    assert structural_check(net).satisfied


def test_transition_free_clusters_are_vacuous():
    net = net_from_arcs({}, places=("p",))
    report = structural_check(net)
    assert report.satisfied
    assert report.clusters_checked == 0


# ---------------------------------------------------------------------------
# Global condition


def test_channel_grab_global_condition_by_scenario():
    orch = _member("channel-grab")
    slow = check_global_condition(orch, 0)
    assert slow.status == "violated"
    assert slow.occurring_latency == date_of(11)
    assert any(w.latency == date_of(5) for w in slow.witnesses)
    fast = check_global_condition(orch, 1)
    assert fast.status == "holds"
    assert fast.configurations_checked == 2


def test_branch_race_global_condition_by_scenario():
    orch = _member("branch-race")
    assert check_global_condition(orch, 0).status == "holds"
    report = check_global_condition(orch, 1)
    assert report.status == "violated"
    (witness,) = report.witnesses
    assert witness.configuration & orch.net.transitions == {"a", "c"}
    assert witness.latency == date_of(6)


def test_global_condition_cap_yields_undecided():
    orch = _member("choice-join")
    report = check_global_condition(orch, 0, config_cap=1)
    assert report.status == "undecided"
    assert report.note


# ---------------------------------------------------------------------------
# Brute-force oracle


def test_branch_race_oracle_finds_the_violation():
    report = brute_force_monotony(_built("branch-race").pre)
    assert report.outcome == "non_monotonic"
    assert report.grid_relative
    assert report.members_checked == 2
    w = report.witness
    assert dominates(w.hi, w.lo)
    assert (w.latency_hi, w.latency_lo) == (date_of(6), date_of(8))


def test_choice_join_oracle_is_monotonic_in_both_modes():
    pre = _built("choice-join").pre
    full = brute_force_monotony(pre, mode="all_pairs")
    quick = brute_force_monotony(pre, mode="adjacent")
    assert full.outcome == quick.outcome == "monotonic"
    assert full.members_checked == quick.members_checked == 256
    assert quick.pairs_checked < full.pairs_checked


def test_adjacent_mode_agrees_with_all_pairs_on_generated_nets():
    rng = random.Random(17)
    for k in range(8):
        gen = random_workflow(rng, size=4, force_diff=k % 2 == 0, name=f"g{k}")
        pre = gen.unfolded_pre()
        full = brute_force_monotony(pre, mode="all_pairs")
        quick = brute_force_monotony(pre, mode="adjacent")
        assert full.outcome == quick.outcome


def test_adjacent_mode_requires_deterministic_ties():
    with pytest.raises(NetStructureError, match="tie"):
        brute_force_monotony(_built("branch-race").pre, tie_break="all", mode="adjacent")


def test_oracle_eval_cap_yields_undecided():
    report = brute_force_monotony(_built("branch-race").pre, eval_cap=1)
    assert report.outcome == "undecided"
    assert "cap" in report.note


def _tie_sensitive_pre() -> PreOrchNet:
    # at a=2 the race ties: lex resolves to a (slow tail), but the b
    # resolution finishes at 3, beating every run of the a=1 member
    net = net_from_arcs(
        {
            "a": (("p",), ("qa",)),
            "b": (("p",), ("qb",)),
            "ta": (("qa",), ("ra",)),
            "tb": (("qb",), ("rb",)),
        }
    )
    declared = {
        "a": const_latency(1),
        "b": const_latency(2),
        "ta": const_latency(10),
        "tb": const_latency(1),
    }
    return PreOrchNet(
        net=net,
        value_fn={t: const_value_fn(atom(t)) for t in net.transitions},
        classes={t: frozenset({t}) for t in net.transitions},
        class_spec=declared,
        class_grid={"a": (date_of(1), date_of(2))},
        initial_date={"p": const_latency(0)},
        place_grid={},
        upward_closed=True,
    )


def test_tie_policy_changes_the_oracle_verdict():
    pre = _tie_sensitive_pre()
    assert brute_force_monotony(pre, tie_break="lex").outcome == "monotonic"
    report = brute_force_monotony(pre, tie_break="all")
    assert report.outcome == "non_monotonic"
    w = report.witness
    assert w.resolution_hi[0] == "b"
    assert (w.latency_hi, w.latency_lo) == (date_of(3), date_of(11))


# ---------------------------------------------------------------------------
# Witness verification


def _branch_race_pair():
    pre = _built("branch-race").pre
    members = {dict(m.class_values)["b"]: m for m in grid_members(pre)}
    lo = pre.instantiate(members[date_of(1)])
    hi = pre.instantiate(members[date_of(3)])
    return lo, hi


def test_verify_accepts_the_branch_race_pair():
    lo, hi = _branch_race_pair()
    verdict = verify_counterexample(lo, hi, 0)
    assert verdict.accepted
    assert (verdict.latency_hi, verdict.latency_lo) == (date_of(6), date_of(8))


def test_verify_rejects_equal_members():
    lo, _ = _branch_race_pair()
    verdict = verify_counterexample(lo, lo, 0)
    assert not verdict.accepted
    assert "no strict decrease" in verdict.reason


def test_verify_rejects_non_dominating_pairs():
    lo, hi = _branch_race_pair()
    verdict = verify_counterexample(hi, lo, 0)  # reversed
    assert not verdict.accepted
    assert "dominate" in verdict.reason


def test_verify_honors_the_declared_tie_policy():
    pre = _tie_sensitive_pre()
    members = {dict(m.class_values)["a"]: m for m in grid_members(pre)}
    lo = pre.instantiate(members[date_of(1)])
    hi = pre.instantiate(members[date_of(2)])
    assert not verify_counterexample(lo, hi, 0, "lex").accepted
    under_all = verify_counterexample(lo, hi, 0, "all")
    assert under_all.accepted
    assert (under_all.latency_hi, under_all.latency_lo) == (date_of(3), date_of(11))


def test_verify_accepts_stall_to_finish_drops():
    lo, hi = _branch_race_pair()
    stall_lo = OrchNet(
        net=lo.net,
        latency={**lo.latency, "d": INFINITE_LATENCY},
        value_fn=dict(lo.value_fn),
        initial_date=dict(lo.initial_date),
        omega_count=lo.omega_count,
    )
    finish_hi = OrchNet(
        net=hi.net,
        latency={**hi.latency, "d": INFINITE_LATENCY},
        value_fn=dict(hi.value_fn),
        initial_date=dict(hi.initial_date),
        omega_count=hi.omega_count,
    )
    verdict = verify_counterexample(stall_lo, finish_hi, 0)
    assert verdict.accepted
    assert verdict.latency_lo == DATE_INF
    assert verdict.latency_hi == date_of(6)


# ---------------------------------------------------------------------------
# Counterexample synthesis


def test_synthesis_on_channel_grab():
    built = _built("channel-grab")
    outcome = synthesize_counterexample(built.carrier, built.specs, 0)
    assert outcome.verification.accepted
    assert outcome.verification.latency_lo == DATE_INF
    assert outcome.verification.latency_hi.is_finite
    assert set(outcome.pair_labels) == {"pick_m", "pick_n"}
    assert outcome.starved_events


def test_synthesis_on_branch_race():
    built = _built("branch-race")
    outcome = synthesize_counterexample(built.carrier_net, built.specs, 0)
    assert outcome.verification.accepted
    assert outcome.verification.latency_lo == DATE_INF


def test_synthesized_lo_violates_the_global_condition():
    built = _built("branch-race")
    outcome = synthesize_counterexample(built.carrier_net, built.specs, 0)
    replay = check_global_condition(outcome.lo, outcome.omega)
    assert replay.status == "violated"


def test_synthesis_fails_honestly_under_a_hard_latency_class():
    # every branch tail shares one declared class: starving one residual
    # starves all of them, so no finite alternative survives
    built = _built("overlap-cluster")
    with pytest.raises(SynthesisError, match="infinite|witness"):
        synthesize_counterexample(built.carrier_net, built.specs, 0)


def test_synthesis_refuses_structurally_sound_nets():
    built = _built("choice-join")
    with pytest.raises(SynthesisError, match="satisfied"):
        synthesize_counterexample(built.carrier, built.specs, 0)


def test_synthesis_requires_upward_closure():
    built = _built("branch-race")
    specs = replace(built.specs, upward_closed=False)
    with pytest.raises(SynthesisError, match="upward_closed"):
        synthesize_counterexample(built.carrier_net, specs, 0)


def test_synthesis_dates_a_forced_prefix_through_its_false_guard():
    # t1 and t2 race on c; t2 also needs x, which only u produces, and u
    # rivals r on a.  The forced prefix of (t1, t2) holds u, whose guard is
    # false: its date is infinite, so r is raised to infinity too, and no
    # maximal configuration finishes once t1's successor w is starved
    def transition(tid, pre, post, latency, **more):
        const = {"kind": "const", "value": latency}
        return {"id": tid, "pre": pre, "post": post, "latency": const, **more}

    never = {
        "op": "eq",
        "left": {"kind": "select", "index": 0},
        "right": {"kind": "const", "value": {"kind": "atom", "value": "never"}},
    }
    doc = {
        "format_version": 1,
        "kind": "occurrence",
        "flags": {"upward_closed": True},
        "places": [{"id": p} for p in ("a", "c", "o1", "o2", "ra", "x", "y")],
        "transitions": [
            transition("u", ["a"], ["x"], "1", guard=never),
            transition("r", ["a"], ["ra"], "2"),
            transition("t1", ["c"], ["o1"], "1"),
            transition("t2", ["c", "x"], ["o2"], "1"),
            transition("w", ["o1"], ["y"], "1"),
        ],
    }
    built = build(loads(json.dumps(doc)))
    with pytest.raises(SynthesisError) as err:
        synthesize_counterexample(built.carrier, built.specs, 0)
    assert str(err.value).split(": ", 1)[1].split("; ") == [
        "(r~0f0d3881,u~3e3338de): no consumable residual place after the winner",
        "(u~3e3338de,r~0f0d3881,x~ce12f6a4): forced run did not stall behind the winner",
        "(t1~ac7f0e50,t2~cc1c2ad2,o1~cf855af1): every maximal configuration is infinite",
        "(t2~cc1c2ad2,t1~ac7f0e50): no consumable residual place after the winner",
    ]


def test_synthesis_succeeds_on_generated_failing_nets():
    rng = random.Random(29)
    for k in range(6):
        gen = random_workflow(rng, size=4 + k % 3, force_diff=True, name=f"s{k}")
        assert not structural_check(gen.workflow).satisfied
        outcome = synthesize_counterexample(gen.workflow, gen.specs, 0)
        assert outcome.verification.accepted
        fresh = verify_counterexample(outcome.lo, outcome.hi, outcome.omega)
        assert fresh.accepted


# ---------------------------------------------------------------------------
# Conditional monotony


def test_branch_race_is_conditionally_monotonic_by_distinct_values():
    pre = _built("branch-race").pre
    assert brute_force_monotony(pre).outcome == "non_monotonic"
    report = conditional_monotony_check(pre)
    assert report.outcome == "conditionally_monotonic"
    assert report.path == "distinct_values"
    assert not report.grid_relative  # holds outright, not just over the grid


def test_force_brute_downgrades_to_a_grid_relative_verdict():
    report = conditional_monotony_check(_built("branch-race").pre, force_brute=True)
    assert report.outcome == "conditionally_monotonic"
    assert report.path == "brute_force"
    assert report.grid_relative


def test_collapsed_values_surface_the_conditional_violation():
    pre = _built("branch-race").pre
    blind = replace(
        pre, value_fn={t: const_value_fn(atom("out")) for t in pre.net.transitions}
    )
    distinct = check_distinct_values(blind.baseline())
    assert not distinct.holds
    assert distinct.witness.omega == 0
    report = conditional_monotony_check(blind)
    assert report.outcome == "non_monotonic"
    assert report.path == "brute_force"
    assert report.witness.values == (atom("out"),)
    assert report.witness.latency_hi < report.witness.latency_lo


def test_choice_join_values_distinguish_the_branches():
    orch = _member("choice-join")
    report = check_distinct_values(orch)
    assert report.holds
    assert report.configurations == 2


def test_conditional_eval_cap_yields_undecided():
    report = conditional_monotony_check(
        _built("branch-race").pre, force_brute=True, eval_cap=1
    )
    assert report.outcome == "undecided"
    assert report.path == "brute_force"


def _atom_and_num_pre() -> PreOrchNet:
    # a1 and a2 race for p, c runs alone; every configuration delivers
    # {atom "1", num 1}, two values with the same string form.  At a1=1,
    # a1 wins and its slow tail t1 ends at 11; at a1=3, a2 wins at 2.
    net = net_from_arcs(
        {
            "a1": (("p",), ("ra",)),
            "t1": (("ra",), ("sa",)),
            "a2": (("p",), ("rb",)),
            "c": (("q",), ("rc",)),
        }
    )
    return PreOrchNet(
        net=net,
        value_fn={
            "a1": const_value_fn(atom("1")),
            "t1": const_value_fn(atom("1")),
            "a2": const_value_fn(atom("1")),
            "c": const_value_fn(num(1)),
        },
        classes={t: frozenset({t}) for t in net.transitions},
        class_spec={
            "a1": const_latency(1),
            "t1": const_latency(10),
            "a2": const_latency(2),
            "c": const_latency(0),
        },
        class_grid={"a1": (date_of(1), date_of(3))},
        initial_date={"p": const_latency(0), "q": const_latency(0)},
        place_grid={},
        upward_closed=True,
    )


def test_witness_values_are_ordered_by_value_sort_key():
    pre = _atom_and_num_pre()
    expected = (atom("1"), num(1))
    assert [str(v) for v in expected] == ["1", "1"]  # str cannot order them
    assert list(expected) == sorted(expected, key=value_sort_key)
    distinct = check_distinct_values(pre.baseline())
    assert not distinct.holds
    assert distinct.witness.values == expected
    report = conditional_monotony_check(pre)
    assert report.outcome == "non_monotonic"
    assert report.witness.values == expected
    assert (report.witness.latency_hi, report.witness.latency_lo) == (date_of(2), date_of(11))


def test_conditional_all_ties_needs_equal_values_in_some_resolution_pair():
    # at a=2 the race ties; the b resolution finishes at 3 and beats the
    # a=1 member (11), but only when both deliver the same values
    pre = _tie_sensitive_pre()
    blind = replace(pre, value_fn={t: const_value_fn(atom("out")) for t in pre.net.transitions})
    assert conditional_monotony_check(blind, force_brute=True).outcome == "conditionally_monotonic"
    report = conditional_monotony_check(blind, tie_break="all", force_brute=True)
    assert report.outcome == "non_monotonic"
    w = report.witness
    assert (w.latency_hi, w.latency_lo) == (date_of(3), date_of(11))
    assert w.resolution_hi[0] == "b" and w.resolution_lo[0] == "a"
    # distinct deliveries per branch: the faster b run never matches a's values
    tagged = conditional_monotony_check(pre, tie_break="all", force_brute=True)
    assert tagged.outcome == "conditionally_monotonic"


def test_synthesis_reuses_the_unfolding_and_its_validation(monkeypatch):
    import orchnet.nets as nets
    from orchnet import unfolding

    unfolded = []
    real = nets.compute_relations

    def counting(net):
        unfolded.append(net)
        return real(net)

    monkeypatch.setattr(nets, "compute_relations", counting)
    unfolding._unfold.cache_clear()
    nets.occurrence_check.cache_clear()
    gen = random_workflow(random.Random(5), 6, force_diff=True, name="reuse")
    result = unfold(gen.workflow)
    outcome = synthesize_counterexample(gen.workflow, gen.specs, 0)
    assert outcome.verification.accepted
    assert outcome.unfolding is result
    assert unfolding._unfold.cache_info().misses == 1
    assert unfolded.count(result.unfolding) == 1


@pytest.mark.parametrize("source", ["channel-grab", "generated"])
def test_synthesis_after_build_induces_one_family(monkeypatch, source):
    from orchnet import unfolding

    from .report_corpus import workflow_document

    if source == "generated":
        gen = random_workflow(random.Random(5), 6, force_diff=True, name="family")
        doc = workflow_document(gen)
    else:
        doc = load_corpus(source)
    made = []
    real = unfolding.PreOrchNet

    def counting(**fields):
        made.append(fields["net"])
        return real(**fields)

    monkeypatch.setattr(unfolding, "PreOrchNet", counting)
    # what the counterexample subcommand does
    built = build(doc)
    assert not structural_check(built.carrier).satisfied
    outcome = synthesize_counterexample(built.carrier, built.specs, 0)
    assert outcome.verification.accepted
    assert made == [outcome.unfolding.unfolding]
