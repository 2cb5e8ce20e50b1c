"""Race-policy execution: dates, stalls, ties, futures, family order."""

import json
import random
import time
from dataclasses import replace

import pytest

from orchnet import (
    DATE_INF,
    CapExceededError,
    EvaluationError,
    GuardOperand,
    GuardSpec,
    INFINITE_LATENCY,
    LatencySpec,
    NetStructureError,
    OrchNet,
    atom,
    build,
    compare_families,
    configuration_of,
    const_latency,
    const_value_fn,
    date_of,
    end_to_end,
    eval_dates,
    execute,
    execute_all,
    future,
    latency_of_prefix,
    load_corpus,
    loads,
    net_from_arcs,
    per_omega_latency,
    replace_class_latency,
    resolutions,
    summarize_run,
    unfold,
)
from orchnet import timed
from orchnet.specs import LatencyExpr

from .race_reference import assert_locally_optimal
from .randnets import grid_members, random_workflow
from .test_sweep_reference import dominates


def _orch(arcs, latency, omega_count=1, guard=None, initial_date=None):
    net = net_from_arcs(arcs)
    return OrchNet(
        net=net,
        latency={t: latency[t] for t in net.transitions},
        value_fn={t: const_value_fn(atom(t)) for t in net.transitions},
        initial_date=initial_date
        or {p: const_latency(0) for p in net.minimal_places},
        omega_count=omega_count,
        guard=guard or {},
    )


def _corpus_member(name):
    return build(load_corpus(name)).pre.baseline()


# ---------------------------------------------------------------------------
# Corpus regressions


def test_branch_race_scenarios():
    orch = _corpus_member("branch-race")
    first = end_to_end(orch, 0)
    assert first.latency == date_of(6)
    assert first.run.occurring & orch.net.transitions == {"a", "c"}
    second = end_to_end(orch, 1)
    assert second.latency == date_of(8)
    assert second.run.occurring & orch.net.transitions == {"b", "d"}


def test_overlap_cluster_scenarios():
    orch = _corpus_member("overlap-cluster")
    assert end_to_end(orch, 0).latency == date_of(6)
    run = execute(orch, 1)
    assert run.occurring & orch.net.transitions == {"b", "e"}
    assert end_to_end(orch, 1).latency == date_of(4)


def test_channel_grab_scenarios():
    orch = _corpus_member("channel-grab")
    assert end_to_end(orch, 0).latency == date_of(11)
    assert end_to_end(orch, 1).latency == date_of(5)


def test_omega_out_of_range_is_an_evaluation_error():
    orch = _corpus_member("branch-race")
    with pytest.raises(EvaluationError, match="omega"):
        end_to_end(orch, 2)


# ---------------------------------------------------------------------------
# Race policy: the fired transition always has a minimal finite date


def test_race_fires_minimal_dates_on_corpus():
    for name in ("branch-race", "overlap-cluster", "channel-grab"):
        orch = _corpus_member(name)
        for omega in range(orch.omega_count):
            assert_locally_optimal(orch, execute(orch, omega))


def test_race_fires_minimal_dates_on_generated_nets():
    rng = random.Random(5)
    for k in range(15):
        gen = random_workflow(rng, size=2 + k % 4, name=f"r{k}")
        orch = gen.unfolded_pre().baseline()
        run = execute(orch, 0)
        assert_locally_optimal(orch, run)
        assert not run.stalled


# ---------------------------------------------------------------------------
# Dates are a fixpoint: replaying the occurring prefix reproduces the run


def test_run_dates_match_structural_evaluation():
    cases = [_corpus_member(n) for n in ("branch-race", "overlap-cluster", "channel-grab")]
    rng = random.Random(6)
    cases += [
        random_workflow(rng, size=2 + k % 4, name=f"f{k}").unfolded_pre().baseline()
        for k in range(10)
    ]
    for orch in cases:
        for omega in range(orch.omega_count):
            run = execute(orch, omega)
            ev = eval_dates(orch, omega, run.occurring)
            assert ev.dates == run.dates
            assert ev.values == run.values


def test_eval_dates_rejects_bad_prefixes():
    orch = _corpus_member("branch-race")
    with pytest.raises(NetStructureError, match="causally closed"):
        eval_dates(orch, 0, frozenset({"a"}))  # p0 missing
    with pytest.raises(NetStructureError, match="conflict"):
        eval_dates(orch, 0, frozenset({"p0", "a", "b", "p1", "p2"}))
    with pytest.raises(NetStructureError, match="unknown"):
        eval_dates(orch, 0, frozenset({"nope"}))


def test_latency_of_prefix_of_empty_prefix_is_zero():
    orch = _corpus_member("branch-race")
    assert latency_of_prefix(orch, 0, frozenset()) == date_of(0)


# ---------------------------------------------------------------------------
# Stalls


def test_unreachable_infinite_branch_stalls_the_run():
    # u can still occur (no conflict with t) but never will: E = inf
    orch = _orch(
        {"t": (("p",), ("q",)), "u": (("r",), ("s",))},
        {"t": const_latency(1), "u": INFINITE_LATENCY},
    )
    summary = end_to_end(orch, 0)
    assert summary.run.stalled
    assert summary.latency == DATE_INF
    assert "u" not in summary.run.occurring


def test_infinite_loser_of_a_race_does_not_stall():
    # u is in conflict with the fired t, so the run is complete
    orch = _orch(
        {"t": (("p",), ("q",)), "u": (("p",), ("s",))},
        {"t": const_latency(1), "u": INFINITE_LATENCY},
    )
    summary = end_to_end(orch, 0)
    assert not summary.run.stalled
    assert summary.latency == date_of(1)


def test_false_guard_behaves_like_infinite_latency():
    guard = GuardSpec(
        op="eq",
        left=GuardOperand(kind="select", index=0),
        right=GuardOperand(kind="const", const=atom("nope")),
    )
    orch = _orch(
        {"t": (("p",), ("q",)), "u": (("r",), ("s",))},
        {"t": const_latency(1), "u": const_latency(1)},
        guard={"u": guard},
    )
    summary = end_to_end(orch, 0)
    assert summary.run.stalled
    assert summary.latency == DATE_INF


def test_true_guard_lets_the_transition_fire():
    guard = GuardSpec(
        op="eq",
        left=GuardOperand(kind="select", index=0),
        right=GuardOperand(kind="const", const=atom("r")),
    )
    orch = _orch(
        {"t": (("p",), ("q",)), "u": (("r",), ("s",))},
        {"t": const_latency(1), "u": const_latency(1)},
        guard={"u": guard},
    )
    summary = end_to_end(orch, 0)
    assert not summary.run.stalled
    assert "u" in summary.run.occurring


# ---------------------------------------------------------------------------
# Ties


def test_concurrent_ties_collapse_to_one_run():
    orch = _orch(
        {"t": (("p",), ("q",)), "u": (("r",), ("s",))},
        {"t": const_latency(1), "u": const_latency(1)},
    )
    runs = execute_all(orch, 0)
    assert len(runs) == 1
    assert runs[0].tie_events  # the tie was seen, it just doesn't matter


def test_conflicting_ties_enumerate_both_outcomes():
    orch = _orch(
        {"t": (("p",), ("q",)), "u": (("p",), ("s",))},
        {"t": const_latency(1), "u": const_latency(1)},
    )
    lex = execute(orch, 0)
    assert lex.step_order == ("t",)  # lexicographic winner
    runs = execute_all(orch, 0)
    occurring = {frozenset(r.occurring & orch.net.transitions) for r in runs}
    assert occurring == {frozenset({"t"}), frozenset({"u"})}


def test_three_binary_races_give_eight_resolutions():
    arcs = {}
    latency = {}
    for i in range(3):
        arcs[f"x{i}"] = ((f"P{i}",), (f"qx{i}",))
        arcs[f"y{i}"] = ((f"P{i}",), (f"qy{i}",))
        latency[f"x{i}"] = latency[f"y{i}"] = const_latency(1)
    orch = _orch(arcs, latency)
    assert len(execute_all(orch, 0)) == 8


def test_tie_enumeration_cap():
    arcs = {}
    latency = {}
    for i in range(8):
        arcs[f"x{i}"] = ((f"P{i}",), (f"qx{i}",))
        arcs[f"y{i}"] = ((f"P{i}",), (f"qy{i}",))
        latency[f"x{i}"] = latency[f"y{i}"] = const_latency(1)
    orch = _orch(arcs, latency)
    with pytest.raises(CapExceededError):
        execute_all(orch, 0, cap=100)


# ---------------------------------------------------------------------------
# Futures: executing after a prefix matches executing from scratch


def test_future_after_prefix_matches_direct_execution():
    orch = _corpus_member("branch-race")
    kappa = configuration_of(orch.net, frozenset({"a"})) - {"p2"}
    # keep only a's own cone plus its input
    kappa = frozenset({"p0", "a", "p1"})
    remainder = future(orch, kappa, 0)
    assert remainder.net.transitions == {"c"}  # b, d are in conflict with a
    assert end_to_end(remainder, 0).latency == end_to_end(orch, 0).latency


def test_future_of_empty_prefix_is_identity():
    orch = _corpus_member("branch-race")
    assert future(orch, frozenset(), 0) is orch


def test_future_requires_postset_closure():
    orch = _corpus_member("branch-race")
    with pytest.raises(NetStructureError, match="postset"):
        future(orch, frozenset({"p0", "a"}), 0)


def test_future_marks_stalled_tokens_with_infinite_dates():
    orch = _orch(
        {"t": (("p",), ("q",)), "u": (("q",), ("s",))},
        {"t": INFINITE_LATENCY, "u": const_latency(1)},
    )
    remainder = future(orch, frozenset({"p", "t", "q"}), 0)
    assert remainder.initial_date["q"] == INFINITE_LATENCY
    assert end_to_end(remainder, 0).latency == DATE_INF


def test_staged_execution_on_generated_nets():
    rng = random.Random(9)
    for k in range(10):
        gen = random_workflow(rng, size=2 + k % 3, name=f"s{k}")
        orch = gen.unfolded_pre().baseline()
        run = execute(orch, 0)
        order = run.step_order
        cut = len(order) // 2
        kappa = configuration_of(orch.net, frozenset(order[:cut]))
        remainder = future(orch, kappa, 0)
        assert end_to_end(remainder, 0).latency == end_to_end(orch, 0).latency


# ---------------------------------------------------------------------------
# Family order


def test_compare_families_tabular():
    lo = _corpus_member("branch-race")
    assert compare_families(lo, lo).geq

    raised = OrchNet(
        net=lo.net,
        latency={**lo.latency, "c": const_latency(9)},
        value_fn=dict(lo.value_fn),
        initial_date=dict(lo.initial_date),
        omega_count=lo.omega_count,
    )
    assert compare_families(raised, lo).geq
    back = compare_families(lo, raised)
    assert not back.geq
    assert "c" in back.witness


def test_compare_families_per_omega_witness_names_the_scenario():
    lo = _orch({"t": (("p",), ("q",))}, {"t": per_omega_latency([1, 5])}, omega_count=2)
    hi = _orch({"t": (("p",), ("q",))}, {"t": per_omega_latency([2, 4])}, omega_count=2)
    verdict = compare_families(hi, lo)
    assert not verdict.geq
    assert "omega=1" in verdict.witness


def test_compare_families_on_different_nets():
    a = _orch({"t": (("p",), ("q",))}, {"t": const_latency(1)})
    b = _orch({"u": (("p",), ("q",))}, {"u": const_latency(1)})
    assert not compare_families(a, b).geq


def test_compare_families_expression_latencies():
    expr = LatencySpec(kind="expr", expr=LatencyExpr(op="input", index=0))
    same_a = _orch(
        {"t": (("p",), ("q",))},
        {"t": expr},
        initial_date={"p": const_latency(2)},
    )
    same_b = _orch(
        {"t": (("p",), ("q",))},
        {"t": expr},
        initial_date={"p": const_latency(2)},
    )
    assert compare_families(same_a, same_b).geq
    other = _orch(
        {"t": (("p",), ("q",))},
        {"t": LatencySpec(kind="expr", expr=LatencyExpr(op="const", const=date_of(3)))},
        initial_date={"p": const_latency(2)},
    )
    assert not compare_families(same_a, other).geq


# ---------------------------------------------------------------------------
# Grid families


def test_assignments_enumerate_the_grid_product():
    pre = build(load_corpus("branch-race")).pre
    members = grid_members(pre)
    assert len(members) == pre.member_count() == 2
    latencies = sorted(
        str(pre.instantiate(m).latency["b"].value_at(0)) for m in members
    )
    assert latencies == ["1", "3"]


def test_baseline_keeps_declared_specs():
    pre = build(load_corpus("branch-race")).pre
    base = pre.baseline()
    assert base.latency["b"] == per_omega_latency([3, 1])


def test_dominates_is_the_componentwise_order():
    pre = build(load_corpus("choice-join")).pre
    members = grid_members(pre)
    top = max(members, key=lambda m: sum(1 for _, v in m.class_values if v == date_of(5)))
    bottom = min(members, key=lambda m: sum(1 for _, v in m.class_values if v == date_of(5)))
    assert all(v == date_of(5) for _, v in top.class_values)
    assert dominates(top, bottom)
    assert not dominates(bottom, top)
    assert dominates(top, top)


def test_replace_class_latency_swaps_one_declared_spec():
    pre = build(load_corpus("branch-race")).pre
    swapped = replace_class_latency(pre, "b", INFINITE_LATENCY)
    member = swapped.baseline()
    assert member.latency["b"] == INFINITE_LATENCY
    assert member.latency["a"] == const_latency(2)


def test_instantiate_maps_grid_values_to_const_specs():
    from orchnet import FamilyAssignment

    pre = build(load_corpus("branch-race")).pre
    member = next(m for m in grid_members(pre) if dict(m.class_values)["b"] == date_of(1))
    orch = pre.instantiate(member)
    assert orch.latency["b"] == const_latency(1)

    forced = FamilyAssignment(
        class_values=tuple(
            (c, DATE_INF if c == "d" else v) for c, v in member.class_values
        ),
        place_values=member.place_values,
    )
    assert pre.instantiate(forced).latency["d"] == INFINITE_LATENCY


@pytest.mark.parametrize("bad", [(), (date_of(1), date_of(2), date_of(1))])
def test_empty_and_duplicate_grids_are_rejected(bad):
    pre = build(load_corpus("branch-race")).pre
    with pytest.raises(NetStructureError, match="grid for class 'b'"):
        replace(pre, class_grid={**pre.class_grid, "b": bad})
    place = sorted(pre.net.minimal_places)[0]
    with pytest.raises(NetStructureError, match=f"grid for place {place!r}"):
        replace(pre, place_grid={place: bad})


def test_member_index_decodes_the_canonical_order():
    pre = build(load_corpus("choice-join")).pre
    grid = pre.grid_index
    members = grid_members(pre)
    assert len(members) == grid.size == pre.member_count() == 256
    assert [grid.member(i) for i in (0, 17, 255)] == [members[0], members[17], members[255]]
    # raising one coordinate moves the index by that coordinate's stride
    for k, cls in enumerate(grid.class_ids):
        stride = grid.strides[k]
        lo, hi = dict(members[0].class_values), dict(members[stride].class_values)
        assert hi[cls] != lo[cls]
        assert {c: v for c, v in hi.items() if c != cls} == {c: v for c, v in lo.items() if c != cls}


# ---------------------------------------------------------------------------
# One tie-resolution API


def _tied_race() -> OrchNet:
    # a and b both finish at 2: lex fires a (done at 3), b is done at 12
    net = net_from_arcs(
        {"a": ({"p"}, {"qa"}), "b": ({"p"}, {"qb"}), "ta": ({"qa"}, {"ra"}), "tb": ({"qb"}, {"rb"})}
    )
    latency = {"a": 2, "b": 2, "ta": 1, "tb": 10}
    return OrchNet(
        net=net,
        latency={t: const_latency(v) for t, v in latency.items()},
        value_fn={t: const_value_fn(atom(t)) for t in net.transitions},
        initial_date={"p": const_latency(0)},
    )


def test_resolutions_lex_is_the_end_to_end_run():
    orch = _tied_race()
    (only,) = resolutions(orch, 0)
    assert only == end_to_end(orch, 0)
    assert only.run.step_order == ("a", "ta")
    assert only.latency == date_of(3)


def test_resolutions_all_enumerates_every_tie_resolution():
    orch = _tied_race()
    outcomes = resolutions(orch, 0, "all")
    assert [o.run.step_order for o in outcomes] == [("a", "ta"), ("b", "tb")]
    assert [o.latency for o in outcomes] == [date_of(3), date_of(12)]
    assert tuple(o.run for o in outcomes) == execute_all(orch, 0)
    with pytest.raises(CapExceededError):
        resolutions(orch, 0, "all", cap=1)


def test_resolutions_rejects_an_unknown_tie_policy():
    with pytest.raises(NetStructureError, match="unknown tie_break"):
        resolutions(_tied_race(), 0, "random")


def test_orchnet_names_the_nodes_without_specs_in_sorted_order():
    net = net_from_arcs({"b": ({"p"}, {"q"}), "a": ({"q"}, {"r"})})
    full = {
        "latency": {t: const_latency(1) for t in net.transitions},
        "value_fn": {t: const_value_fn(atom(t)) for t in net.transitions},
        "initial_date": {"p": const_latency(0)},
    }
    for key, message in (
        ("latency", "transitions without latency specs: ['a', 'b']"),
        ("initial_date", "minimal places without initial dates: ['p']"),
    ):
        with pytest.raises(NetStructureError) as err:
            OrchNet(net=net, **{**full, key: {}})
        assert str(err.value) == message
    assert OrchNet(net=net, **full).initial_value == {"p": atom("p")}
    # a transition without a value function gives the atom of its own id
    bare = OrchNet(net=net, **{**full, "value_fn": {}})
    assert eval_dates(bare, 0, net.nodes).values == {
        "p": atom("p"), "b": atom("b"), "q": atom("b"), "a": atom("a"), "r": atom("a")
    }


def test_orchnet_leaves_the_initial_value_dict_it_was_given_unchanged():
    given: dict = {}
    orch = OrchNet(
        net=net_from_arcs({"t": ({"p"}, {"q"})}),
        latency={"t": const_latency(1)},
        value_fn={"t": const_value_fn(atom("t"))},
        initial_date={"p": const_latency(0)},
        initial_value=given,
    )
    assert given == {}
    assert orch.initial_value == {"p": atom("p")}


# ---------------------------------------------------------------------------
# Scale: validation and the race build no table quadratic in the net


def _occurrence_document(transitions):
    places = sorted({p for _, pre, post, _ in transitions for p in (*pre, *post)})
    return {
        "format_version": 1,
        "kind": "occurrence",
        "omega_count": 1,
        "places": [{"id": p} for p in places],
        "transitions": [
            {"id": t, "pre": pre, "post": post, "latency": {"kind": "const", "value": str(lat)}}
            for t, pre, post, lat in transitions
        ],
    }


def _build_and_race(transitions):
    orch = build(loads(json.dumps(_occurrence_document(transitions)))).pre.baseline()
    start = time.perf_counter()
    result = summarize_run(orch, execute(orch, 0))
    print(f"raced {len(transitions)} transitions in {time.perf_counter() - start:.2f} s")
    # the O(N^2) causal-past tables stay unbuilt
    assert not {"below", "above"} & orch.relations.__dict__.keys()
    return result


def test_a_10000_transition_chain_builds_and_races_without_causal_past_tables():
    n = 10_000
    chain = [(f"t{i:05d}", [f"p{i:05d}"], [f"p{i + 1:05d}"], 1) for i in range(n)]
    result = _build_and_race(chain)
    assert result.latency == date_of(n)
    assert result.values == frozenset({atom(f"t{n - 1:05d}")})
    assert len(result.run.step_order) == n and not result.run.stalled


def test_a_2000_branch_fork_join_builds_and_races_without_causal_past_tables():
    w = 2_000
    branches = [(f"b{i:04d}", [f"a{i:04d}"], [f"c{i:04d}"], i % 7) for i in range(w)]
    fork = ("fork", ["src"], [f"a{i:04d}" for i in range(w)], 1)
    join = ("join", [f"c{i:04d}" for i in range(w)], ["sink"], 1)
    result = _build_and_race([fork, *branches, join])
    assert result.latency == date_of(1 + 6 + 1)
    assert result.values == frozenset({atom("join")})
    assert result.run.step_order[0] == "fork" and result.run.step_order[-1] == "join"
    assert len(result.run.step_order) == w + 2 and not result.run.stalled


# ---------------------------------------------------------------------------
# Ties: a tied group leaves the heap once and drains in id order


def _all_tied_fork_join(w: int):
    branches = [(f"b{i:05d}", [f"a{i:05d}"], [f"c{i:05d}"], 1) for i in range(w)]
    fork = ("fork", ["src"], [f"a{i:05d}" for i in range(w)], 1)
    join = ("join", [f"c{i:05d}" for i in range(w)], ["sink"], 1)
    return [fork, *branches, join]


def _count_heap_operations(monkeypatch) -> dict:
    counts = {"push": 0, "pop": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(timed, "heappush", counted("push", timed.heappush))
    monkeypatch.setattr(timed, "heappop", counted("pop", timed.heappop))
    return counts


def test_an_all_tied_2000_branch_fork_join_drains_its_tie_once(monkeypatch):
    w = 2_000
    counts = _count_heap_operations(monkeypatch)
    result = _build_and_race(_all_tied_fork_join(w))
    run = result.run
    assert result.latency == date_of(3)
    assert run.step_order == ("fork", *(f"b{i:05d}" for i in range(w)), "join")
    # the tie shrinks by its least member at each step, down to two
    assert [len(tie) for tie in run.tie_events] == list(range(w, 1, -1))
    assert all(f"b{i:05d}" in tie for i, tie in enumerate(run.tie_events))
    assert run.tie_events[-1] == frozenset({f"b{w - 2:05d}", f"b{w - 1:05d}"})
    # fork popped, w branches pushed and popped once each, join pushed and popped
    assert counts == {"push": w + 1, "pop": w + 2}


def test_a_10000_way_tie_makes_heap_traffic_linear_in_its_width(monkeypatch):
    counts = _count_heap_operations(monkeypatch)
    traffic = {}
    for w in (1_000, 10_000):
        net = net_from_arcs({t: (pre, post) for t, pre, post, _ in _all_tied_fork_join(w)})
        rn = timed._race_net(net)
        for i in range(len(rn.names)):
            rn.compile(i)
        widths = []

        class Widths(list):
            # the recorded ties would take W^2/2 names; keep their widths
            def append(self, tie):
                widths.append(len(tie))

        counts.update(push=0, pop=0)
        latency = [1] * len(rn.names)
        ((fired, stalled, _, _),) = timed._race(
            rn, latency, [0] * len(rn.names) + [0], None, False, 0, Widths()
        )
        assert len(fired) == w + 2 and not stalled
        assert widths == list(range(w, 1, -1))
        traffic[w] = counts["push"] + counts["pop"]
        assert traffic[w] == 2 * w + 3
    # ten times the width, ten times the heap operations
    assert traffic[10_000] - 3 == 10 * (traffic[1_000] - 3)
