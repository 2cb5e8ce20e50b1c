"""End-to-end acceptance checks.

One test per shipped guarantee, so ``pytest -v`` prints one pass/fail
line each.  The heavy ones (random-net sweeps, the invariant suite) carry
explicit runtime budgets and case counters.
"""

import json
import random
import time
from functools import lru_cache

from orchnet import (
    OrchNet,
    brute_force_monotony,
    build,
    check_distinct_values,
    check_global_condition,
    conditional_monotony_check,
    configuration_of,
    const_latency,
    date_of,
    end_to_end,
    eval_dates,
    execute,
    is_configuration,
    latency_of_prefix,
    load_corpus,
    maximal_configurations,
    structural_check,
    synthesize_counterexample,
    unfold,
    verify_counterexample,
)
from orchnet.cli import main as cli_main

from .race_reference import assert_locally_optimal
from .randnets import grid_members, random_workflow, standard_corpus


@lru_cache(maxsize=1)
def _corpus200():
    return tuple(standard_corpus(total=200))


def _pre(name):
    return build(load_corpus(name)).pre


def _members_by(pre, cls):
    return {dict(m.class_values)[cls]: m for m in grid_members(pre)}


def test_01_branch_race_regression():
    t0 = time.perf_counter()
    orch = _pre("branch-race").baseline()
    slow_b = end_to_end(orch, 0)
    assert str(slow_b.latency) == "6"
    assert slow_b.run.occurring & orch.net.transitions == {"a", "c"}
    fast_b = end_to_end(orch, 1)
    assert str(fast_b.latency) == "8"
    assert fast_b.run.occurring & orch.net.transitions == {"b", "d"}
    assert time.perf_counter() - t0 < 1.0
    print("acceptance 1/9 pass: branch-race end-to-end 6 and 8 with the flipped winners")


def test_02_overlap_cluster_tail_sweep():
    t0 = time.perf_counter()
    pre = _pre("overlap-cluster")
    members = grid_members(pre)
    assert len(members) == 6
    for member in members:
        chosen = dict(member.class_values)
        head, tail = chosen["a"], chosen["tail"]
        got = end_to_end(pre.instantiate(member), 0).latency
        if head == date_of(2):
            assert got == date_of(5) + tail
        else:
            assert head == date_of(4)
            assert got == date_of(3) + tail
    # raising the head from 2 to 4 lowers the end-to-end latency
    for tail in (date_of(0), date_of(1), date_of(2)):
        lo = next(
            m for m in members
            if dict(m.class_values)["a"] == date_of(2) and dict(m.class_values)["tail"] == tail
        )
        hi = next(
            m for m in members
            if dict(m.class_values)["a"] == date_of(4) and dict(m.class_values)["tail"] == tail
        )
        assert end_to_end(pre.instantiate(hi), 0).latency < end_to_end(pre.instantiate(lo), 0).latency
    assert time.perf_counter() - t0 < 1.0
    print("acceptance 2/9 pass: overlap-cluster tail sweep 5+t vs 3+t with the flip")


def test_03_choice_join_structural_unfolding_oracle():
    t0 = time.perf_counter()
    built = build(load_corpus("choice-join"))
    assert structural_check(built.carrier).satisfied
    join_copies = [
        e for e in built.unfolding.unfolding.transitions
        if built.unfolding.morphism[e] == "c"
    ]
    assert len(join_copies) == 2
    report = brute_force_monotony(built.pre, mode="all_pairs")
    assert report.outcome == "monotonic"
    assert report.members_checked == 256
    assert time.perf_counter() - t0 < 10.0
    print("acceptance 3/9 pass: choice-join structural + two join copies + clean oracle")


def test_04_channel_grab_raise_pair():
    t0 = time.perf_counter()
    pre = _pre("channel-grab")
    members = _members_by(pre, "m")
    lo = pre.instantiate(members[date_of(1)])
    hi = pre.instantiate(members[date_of(3)])
    assert str(end_to_end(lo, 0).latency) == "11"
    assert str(end_to_end(hi, 0).latency) == "5"
    verdict = verify_counterexample(lo, hi, 0)
    assert verdict.accepted
    assert time.perf_counter() - t0 < 1.0
    print("acceptance 4/9 pass: channel-grab raise 1->3 drops 11->5, verified")


def test_05_random_nets_structural_oracle_synthesis():
    t0 = time.perf_counter()
    nets = _corpus200()
    assert len(nets) == 200
    passing = [g for g in nets if structural_check(g.workflow).satisfied]
    failing = [g for g in nets if not structural_check(g.workflow).satisfied]
    assert len(passing) == 100 and len(failing) == 100

    for gen in passing:
        report = brute_force_monotony(gen.unfolded_pre(), mode="adjacent")
        assert report.outcome == "monotonic", gen.name

    synthesized = 0
    for gen in failing:
        outcome = synthesize_counterexample(gen.workflow, gen.specs, 0)
        assert outcome.verification.accepted, gen.name
        fresh = verify_counterexample(outcome.lo, outcome.hi, outcome.omega)
        assert fresh.accepted, gen.name
        synthesized += 1
    assert synthesized == len(failing)
    assert time.perf_counter() - t0 < 300.0
    print(
        "acceptance 5/9 pass: 100 structurally clean nets oracle-monotonic, "
        "100 violating nets synthesized and verified"
    )


def test_06_witness_replay_through_global_condition():
    t0 = time.perf_counter()
    failing = [g for g in _corpus200() if not structural_check(g.workflow).satisfied]
    found = 0
    reconstructed = 0
    for gen in failing:
        pre = gen.unfolded_pre()
        if pre.member_count() > 1024:
            continue  # full-definition oracle only where the grid stays small
        report = brute_force_monotony(pre, mode="all_pairs")
        if report.outcome != "non_monotonic":
            continue
        found += 1
        w = report.witness
        lo = pre.instantiate(w.lo)
        hi = pre.instantiate(w.hi)
        faster = execute(hi, w.omega).occurring
        slower = end_to_end(lo, w.omega).latency
        assert latency_of_prefix(lo, w.omega, faster) < slower
        assert check_global_condition(lo, w.omega).status == "violated"
        reconstructed += 1
    assert found > 0
    assert reconstructed == found
    assert time.perf_counter() - t0 < 300.0
    print(
        f"acceptance 6/9 pass: {reconstructed}/{found} oracle witnesses replay "
        "as global-condition violations"
    )


def test_07_distinct_values_conditional_monotony():
    t0 = time.perf_counter()
    rng = random.Random(20260824)
    holds = fails = 0
    for k in range(40):
        gen = random_workflow(rng, size=2 + k % 4, tagged=k % 2 == 0, name=f"cv{k}")
        pre = gen.unfolded_pre()
        distinct = check_distinct_values(pre.baseline())
        if distinct.holds:
            holds += 1
            report = conditional_monotony_check(pre, force_brute=True)
            assert report.outcome == "conditionally_monotonic", gen.name
        else:
            fails += 1
    assert holds > 0 and fails > 0  # the sweep exercises both sides

    pre = _pre("branch-race")
    assert brute_force_monotony(pre).outcome == "non_monotonic"
    assert conditional_monotony_check(pre).outcome == "conditionally_monotonic"
    assert time.perf_counter() - t0 < 300.0
    print(
        f"acceptance 7/9 pass: {holds} distinct-value nets conditionally monotonic, "
        "branch-race is both non-monotonic and conditionally monotonic"
    )


def test_08_semantics_invariant_suite():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    cases = {
        "maxplus_monotony": 0,
        "date_fixpoint": 0,
        "race_local_optimality": 0,
        "morphism_laws": 0,
        "unfolding_completeness": 0,
        "unfolding_minimality": 0,
    }

    def reachable_markings(net):
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

    for k in range(100):
        gen = random_workflow(rng, size=2 + k % 5, name=f"inv{k}")
        result = unfold(gen.workflow)
        unf = result.unfolding
        phi = result.morphism
        carrier = gen.workflow.net

        # morphism laws: kind preservation and local pre/post bijections
        for e in unf.transitions:
            assert sorted(phi[c] for c in unf.preset[e]) == sorted(carrier.preset[phi[e]])
            assert sorted(phi[c] for c in unf.postset[e]) == sorted(carrier.postset[phi[e]])
            cases["morphism_laws"] += 1

        # minimality: one event per (label, preset conditions)
        keys = {(phi[e], frozenset(unf.preset[e])) for e in unf.transitions}
        assert len(keys) == len(unf.transitions)
        cases["unfolding_minimality"] += 1

        # completeness: configuration cuts sweep the reachable markings
        events = sorted(unf.transitions)
        if len(events) <= 11:
            images = set()
            for mask in range(1 << len(events)):
                fired = frozenset(e for i, e in enumerate(events) if mask >> i & 1)
                nodes = configuration_of(unf, fired)
                if nodes & unf.transitions != fired or not is_configuration(unf, nodes):
                    continue
                consumed = frozenset().union(*(unf.preset[e] for e in fired)) if fired else frozenset()
                produced = frozenset().union(*(unf.postset[e] for e in fired)) if fired else frozenset()
                cut = (unf.minimal_places | produced) - consumed
                images.add(frozenset(phi[c] for c in cut))
            assert images == reachable_markings(carrier)
            cases["unfolding_completeness"] += 1

        pre = gen.unfolded_pre()
        members = grid_members(pre)
        for member in rng.sample(members, k=min(3, len(members))):
            orch = pre.instantiate(member)
            run = execute(orch, 0)

            # race policy fires a minimal-date candidate at every step
            cases["race_local_optimality"] += assert_locally_optimal(orch, run)

            # the run's dates are the unique fixpoint over its prefix
            ev = eval_dates(orch, 0, run.occurring)
            assert ev.dates == run.dates
            cases["date_fixpoint"] += 1

            # per-configuration latency is monotone in every single latency
            for config in maximal_configurations(orch.net, cap=64):
                t = rng.choice(sorted(orch.net.transitions))
                bumped = orch.latency[t].value_at(0) + date_of(1)
                raised = OrchNet(
                    net=orch.net,
                    latency={**orch.latency, t: const_latency(bumped)},
                    value_fn=dict(orch.value_fn),
                    initial_date=dict(orch.initial_date),
                    omega_count=orch.omega_count,
                    guard=dict(orch.guard),
                    initial_value=dict(orch.initial_value),
                )
                assert latency_of_prefix(raised, 0, config) >= latency_of_prefix(orch, 0, config)
                cases["maxplus_monotony"] += 1

    total = sum(cases.values())
    assert total >= 1000, cases
    assert all(count > 0 for count in cases.values()), cases
    assert time.perf_counter() - t0 < 300.0
    print(f"acceptance 8/9 pass: invariant suite, {total} cases {cases}")


def test_09_deterministic_reports(capsys):
    commands = [
        ("validate",),
        ("unfold",),
        ("simulate", "--omega", "0"),
        ("check-structural",),
        ("check-global", "--omega", "0"),
        ("oracle",),
        ("counterexample", "--omega", "0"),
        ("check-conditional",),
    ]
    for name in ("branch-race", "channel-grab", "choice-join", "overlap-cluster"):
        for command in commands:
            argv = [command[0], f"corpus:{name}", *command[1:]]
            first_code = cli_main(list(argv))
            first = capsys.readouterr().out
            second_code = cli_main(list(argv))
            second = capsys.readouterr().out
            assert first_code == second_code
            assert first == second, argv
            json.loads(first)
    print("acceptance 9/9 pass: byte-identical reports for 8 subcommands x 4 corpus nets")
