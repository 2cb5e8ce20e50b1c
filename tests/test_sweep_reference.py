"""Differential test: the kernel sweep against the member-list sweep.

The reference below is the oracle and conditional brute force as they
were before the mixed-radix grid index and the race kernel: a
materialised member list sorted by string keys, adjacent raises found by
re-sorting each grid and looking the raised member up by key, all pairs
found by filtering every ordered member pair through ``dominates``, and
each member instantiated as an ``OrchNet`` and raced by ``end_to_end`` or
``execute_all``.  Every report (verdict, witness, members and pairs
checked, cap note) must come out equal.
"""

import sys
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache

import pytest

from orchnet import (
    PreOrchNet,
    brute_force_monotony,
    build,
    conditional_monotony_check,
    const_latency,
    const_value_fn,
    date_of,
    load_corpus,
    net_from_arcs,
)
from orchnet.attributes import atom, value_sort_key
from orchnet.errors import CapExceededError
from orchnet.monotony import ConditionalReport, ConditionalWitness, OracleReport, OracleWitness
from orchnet.specs import ValueFnSpec
from orchnet.timed import FamilyAssignment, end_to_end, execute_all, summarize_run

from .randnets import standard_corpus

# ---------------------------------------------------------------------------
# Reference implementation


def _sort_key(m: FamilyAssignment):
    return (
        tuple((c, v is None, str(v)) for c, v in m.class_values),
        tuple((p, v is None, str(v)) for p, v in m.place_values),
    )


def ref_member(pre: PreOrchNet, member: FamilyAssignment):
    return pre.instantiate(member)


def ref_assignments(pre: PreOrchNet) -> tuple[FamilyAssignment, ...]:
    class_ids = sorted(pre.classes)
    place_ids = sorted(pre.net.minimal_places)
    class_combos = [()]
    for c in class_ids:
        options = [(c, v) for v in pre.class_grid[c]] if c in pre.class_grid else [(c, None)]
        class_combos = [combo + (opt,) for combo in class_combos for opt in options]
    place_combos = [()]
    for p in place_ids:
        options = [(p, v) for v in pre.place_grid[p]] if p in pre.place_grid else [(p, None)]
        place_combos = [combo + (opt,) for combo in place_combos for opt in options]
    members = [
        FamilyAssignment(class_values=cc, place_values=pc)
        for cc in class_combos
        for pc in place_combos
    ]
    members.sort(key=_sort_key)
    return tuple(members)


def _ref_adjacent_raises(pre: PreOrchNet, member: FamilyAssignment):
    class_values = dict(member.class_values)
    place_values = dict(member.place_values)
    for cls, current in member.class_values:
        if current is None:
            continue
        ladder = sorted(set(pre.class_grid[cls]))
        pos = ladder.index(current)
        if pos + 1 < len(ladder):
            raised = dict(class_values)
            raised[cls] = ladder[pos + 1]
            yield FamilyAssignment(
                class_values=tuple(sorted(raised.items())),
                place_values=member.place_values,
            )
    for p, current in member.place_values:
        if current is None:
            continue
        ladder = sorted(set(pre.place_grid[p]))
        pos = ladder.index(current)
        if pos + 1 < len(ladder):
            raised = dict(place_values)
            raised[p] = ladder[pos + 1]
            yield FamilyAssignment(
                class_values=member.class_values,
                place_values=tuple(sorted(raised.items())),
            )


def ref_oracle(pre, tie_break="lex", mode="all_pairs", eval_cap=1_000_000) -> OracleReport:
    members = ref_assignments(pre)
    budget = {"left": eval_cap}
    memo = {}

    def results_of(idx, omega):
        key = (idx, omega)
        if key not in memo:
            if budget["left"] <= 0:
                raise CapExceededError(f"oracle exceeded evaluation cap {eval_cap}")
            budget["left"] -= 1
            orch = ref_member(pre, members[idx])
            if tie_break == "lex":
                memo[key] = (end_to_end(orch, omega),)
            else:
                memo[key] = tuple(summarize_run(orch, r) for r in execute_all(orch, omega))
        return memo[key]

    pairs_checked = 0

    def compare_pair(hi_idx, lo_idx):
        nonlocal pairs_checked
        pairs_checked += 1
        for omega in range(pre.omega_count):
            for hi_res in results_of(hi_idx, omega):
                for lo_res in results_of(lo_idx, omega):
                    if hi_res.latency < lo_res.latency:
                        return OracleWitness(
                            hi=members[hi_idx],
                            lo=members[lo_idx],
                            omega=omega,
                            latency_hi=hi_res.latency,
                            latency_lo=lo_res.latency,
                            resolution_hi=hi_res.run.step_order if tie_break == "all" else (),
                            resolution_lo=lo_res.run.step_order if tie_break == "all" else (),
                        )
        return None

    def report(outcome, witness=None, note=""):
        return OracleReport(
            outcome=outcome,
            grid_relative=True,
            witness=witness,
            members_checked=len(members),
            pairs_checked=pairs_checked,
            note=note,
        )

    try:
        if mode == "all_pairs":
            for hi_idx in range(len(members)):
                for lo_idx in range(len(members)):
                    if hi_idx == lo_idx or not members[hi_idx].dominates(members[lo_idx]):
                        continue
                    witness = compare_pair(hi_idx, lo_idx)
                    if witness is not None:
                        return report("non_monotonic", witness)
        else:
            index_of = {_sort_key(m): i for i, m in enumerate(members)}
            for lo_idx, lo in enumerate(members):
                for hi in _ref_adjacent_raises(pre, lo):
                    witness = compare_pair(index_of[_sort_key(hi)], lo_idx)
                    if witness is not None:
                        return report("non_monotonic", witness)
    except CapExceededError as exc:
        return report("undecided", note=str(exc))
    return report("monotonic")


def ref_conditional_brute(pre, eval_cap=1_000_000) -> ConditionalReport:
    """The lex brute-force branch of ``conditional_monotony_check``; the
    witness values are ordered by ``value_sort_key``."""
    members = ref_assignments(pre)
    budget = {"left": eval_cap}
    memo = {}

    def result_of(idx, omega):
        key = (idx, omega)
        if key not in memo:
            if budget["left"] <= 0:
                raise CapExceededError(f"conditional check exceeded evaluation cap {eval_cap}")
            budget["left"] -= 1
            memo[key] = end_to_end(ref_member(pre, members[idx]), omega)
        return memo[key]

    try:
        for hi_idx in range(len(members)):
            for lo_idx in range(len(members)):
                if hi_idx == lo_idx or not members[hi_idx].dominates(members[lo_idx]):
                    continue
                for omega in range(pre.omega_count):
                    hi_res = result_of(hi_idx, omega)
                    lo_res = result_of(lo_idx, omega)
                    if hi_res.values == lo_res.values and hi_res.latency < lo_res.latency:
                        return ConditionalReport(
                            outcome="non_monotonic",
                            path="brute_force",
                            grid_relative=True,
                            witness=ConditionalWitness(
                                hi=members[hi_idx],
                                lo=members[lo_idx],
                                omega=omega,
                                latency_hi=hi_res.latency,
                                latency_lo=lo_res.latency,
                                values=tuple(sorted(hi_res.values, key=value_sort_key)),
                            ),
                        )
    except CapExceededError as exc:
        return ConditionalReport(
            outcome="undecided", path="brute_force", grid_relative=True,
            witness=None, note=str(exc),
        )
    return ConditionalReport(
        outcome="conditionally_monotonic", path="brute_force", grid_relative=True, witness=None,
    )


# ---------------------------------------------------------------------------
# Corpus sweeps


@contextmanager
def shared_races():
    """Race each (member, omega, tie policy) of the reference once.

    The reference sweeps keep their own memo and budget above this cache;
    it spares them racing a member again for each mode.  The real sweep
    is left uncached: it races members on ``pre.kernel`` and replays only
    the witness pair through ``monotony.resolutions``, so every report
    compares the kernel sweep with the reference sweep.
    """
    members: dict = {}
    races: dict = {}
    real_end_to_end, real_execute_all = end_to_end, execute_all

    def cached_member(pre, assignment):
        key = (id(pre), assignment)
        if key not in members:
            members[key] = (pre, pre.instantiate(assignment))
        return members[key][1]

    def cached_end_to_end(orch, omega):
        key = (id(orch), omega, "lex")
        if key not in races:
            races[key] = (orch, real_end_to_end(orch, omega))
        return races[key][1]

    def cached_execute_all(orch, omega, *args):
        key = (id(orch), omega, "all", args)
        if key not in races:
            races[key] = (orch, real_execute_all(orch, omega, *args))
        return races[key][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "ref_member", cached_member)
        mp.setattr(sys.modules[__name__], "end_to_end", cached_end_to_end)
        mp.setattr(sys.modules[__name__], "execute_all", cached_execute_all)
        yield


@lru_cache(maxsize=1)
def _corpus_pres():
    return tuple((gen.name, gen.unfolded_pre()) for gen in standard_corpus(total=200))


def test_corpus_reports_match_the_reference():
    """Every sweep on the 200-net acceptance corpus, within member limits
    that keep the reference's materialised list and its M^2 dominance
    filter affordable (about 4 s per clean 1,024-member net)."""
    checked = Counter()
    for name, pre in _corpus_pres():
        members = pre.member_count()
        if members > 16384:
            continue
        with shared_races():
            assert pre.assignments() == ref_assignments(pre), name
            got = brute_force_monotony(pre, mode="adjacent")
            assert got == ref_oracle(pre, mode="adjacent"), name
            checked["adjacent"] += 1
            if members <= 256 or (members <= 1024 and name.startswith("fail")):
                got = brute_force_monotony(pre, mode="all_pairs")
                assert got == ref_oracle(pre, mode="all_pairs"), name
                checked["all_pairs"] += 1
            if members <= 256:
                got = conditional_monotony_check(pre, force_brute=True)
                assert got == ref_conditional_brute(pre), name
                checked["conditional"] += 1
            if members <= 64:
                got = brute_force_monotony(pre, tie_break="all")
                assert got == ref_oracle(pre, tie_break="all"), name
                checked["all_ties"] += 1
    assert checked == {"adjacent": 188, "all_pairs": 116, "conditional": 90, "all_ties": 39}


# ---------------------------------------------------------------------------
# Hand-made grids where the string order and the value order disagree


def _odd_grid_pre(grid_a, grid_b, place_grid=()) -> PreOrchNet:
    # a and b race for p; a's branch has a slow tail, so raising a can
    # hand the race to b and finish earlier
    net = net_from_arcs(
        {
            "a": (("p",), ("qa",)),
            "b": (("p",), ("qb",)),
            "ta": (("qa",), ("ra",)),
            "tb": (("qb",), ("rb",)),
        }
    )
    return PreOrchNet(
        net=net,
        value_fn={t: ValueFnSpec(kind="tuple_of_inputs") for t in net.transitions},
        classes={"a": frozenset({"a"}), "b": frozenset({"b"}), "tail": frozenset({"ta", "tb"})},
        class_spec={"a": const_latency(1), "b": const_latency(2), "tail": const_latency(1)},
        class_grid={
            "a": tuple(date_of(v) for v in grid_a),
            "b": tuple(date_of(v) for v in grid_b),
            "tail": (date_of("10"), date_of("2")),
        },
        initial_date={"p": const_latency(0)},
        place_grid={"p": tuple(date_of(v) for v in place_grid)} if place_grid else {},
        upward_closed=True,
    )


ODD_GRIDS = [
    (("2", "10"), ("3", "1/3"), ()),
    (("1/3", "0.5", "inf"), ("2", "10", "0.25"), ("0", "1/3")),
    (("inf", "10", "2", "0"), ("1",), ("3", "10", "2")),
]


@pytest.mark.parametrize("grids", ODD_GRIDS)
def test_odd_grids_match_the_reference_in_every_mode(grids):
    pre = _odd_grid_pre(*grids)
    assert pre.assignments() == ref_assignments(pre)
    for mode in ("adjacent", "all_pairs"):
        assert brute_force_monotony(pre, mode=mode) == ref_oracle(pre, mode=mode)
    assert brute_force_monotony(pre, tie_break="all") == ref_oracle(pre, tie_break="all")
    assert conditional_monotony_check(pre, force_brute=True) == ref_conditional_brute(pre)


def test_odd_grids_put_ten_before_two():
    pre = _odd_grid_pre(("2", "10"), ("3",))
    firsts = [dict(m.class_values)["a"] for m in pre.assignments()]
    assert [str(v) for v in firsts] == ["10", "10", "2", "2"]


@pytest.mark.parametrize("grids", ODD_GRIDS)
@pytest.mark.parametrize("cap", [0, 1, 2, 3, 5, 8, 13])
def test_tight_caps_stop_at_the_same_pair(grids, cap):
    pre = _odd_grid_pre(*grids)
    for mode in ("adjacent", "all_pairs"):
        got = brute_force_monotony(pre, mode=mode, eval_cap=cap)
        assert got == ref_oracle(pre, mode=mode, eval_cap=cap), mode
    got = brute_force_monotony(pre, tie_break="all", eval_cap=cap)
    assert got == ref_oracle(pre, tie_break="all", eval_cap=cap)
    got = conditional_monotony_check(pre, force_brute=True, eval_cap=cap)
    assert got == ref_conditional_brute(pre, eval_cap=cap)


@pytest.mark.parametrize("name", ["branch-race", "channel-grab", "choice-join", "overlap-cluster"])
@pytest.mark.parametrize("cap", [1, 3, 7, 1_000_000])
def test_corpus_nets_match_the_reference_at_caps(name, cap):
    pre = build(load_corpus(name)).pre
    for mode in ("adjacent", "all_pairs"):
        got = brute_force_monotony(pre, mode=mode, eval_cap=cap)
        assert got == ref_oracle(pre, mode=mode, eval_cap=cap), mode
    got = conditional_monotony_check(pre, force_brute=True, eval_cap=cap)
    assert got == ref_conditional_brute(pre, eval_cap=cap)


def test_collapsed_values_witness_matches_the_reference():
    pre = build(load_corpus("branch-race")).pre
    blind = PreOrchNet(
        net=pre.net,
        value_fn={t: const_value_fn(atom("out")) for t in pre.net.transitions},
        classes=pre.classes,
        class_spec=pre.class_spec,
        class_grid=pre.class_grid,
        initial_date=pre.initial_date,
        place_grid=pre.place_grid,
        omega_count=pre.omega_count,
        upward_closed=pre.upward_closed,
    )
    got = conditional_monotony_check(blind, force_brute=True)
    assert got.outcome == "non_monotonic"
    assert got == ref_conditional_brute(blind)
