"""Differential test: the kernel sweep against the member-list sweep.

The reference below is the oracle and conditional brute force as they
were before the mixed-radix grid index and the race kernel: a
materialised member list sorted by string keys, adjacent raises found by
re-sorting each grid and looking the raised member up by key, all pairs
found by filtering every ordered member pair by dominance, and each
member instantiated as an ``OrchNet`` and raced by ``end_to_end`` or
``execute_all``.  Every report (verdict, witness, members and pairs
checked, cap note) must come out equal.  The dominance filter compares
rank keys read once per member, which are checked against ``dominates``,
the pointwise order on values.
"""

import random
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    per_omega_latency,
)
from orchnet.attributes import atom, value_sort_key
from orchnet.errors import CapExceededError, EvaluationError, NetStructureError
from orchnet.monotony import ConditionalReport, GridWitness, OracleReport, _dominating_pairs
from orchnet.specs import GuardOperand, GuardSpec, ValueFnSpec
from orchnet.timed import FamilyAssignment, RaceKernel, end_to_end, execute_all, summarize_run

from .randnets import grid_members, random_workflow, standard_corpus
from .test_kernel_reference import POOL, random_pre

# ---------------------------------------------------------------------------
# Reference implementation


def _sort_key(m: FamilyAssignment):
    return (
        tuple((c, v is None, str(v)) for c, v in m.class_values),
        tuple((p, v is None, str(v)) for p, v in m.place_values),
    )


def dominates(hi: FamilyAssignment, lo: FamilyAssignment) -> bool:
    """Whether ``hi`` is at least ``lo`` on every coordinate."""
    mine = hi.class_values + hi.place_values
    for (c, v), (c2, v2) in zip(mine, lo.class_values + lo.place_values):
        assert c == c2
        if v is None and v2 is None:
            continue
        if v is None or v2 is None or v < v2:
            return False
    return True


def rank_keys(pre: PreOrchNet, members) -> list[tuple[int, ...]]:
    """Per member, the rank of each coordinate's value in its coordinate's
    sorted grid, or 0 where the coordinate has no grid: a member dominates
    another exactly when none of its ranks is lower."""
    class_rank = {c: {v: r for r, v in enumerate(sorted(g))} for c, g in pre.class_grid.items()}
    place_rank = {p: {v: r for r, v in enumerate(sorted(g))} for p, g in pre.place_grid.items()}
    return [
        tuple(0 if v is None else class_rank[c][v] for c, v in m.class_values)
        + tuple(0 if v is None else place_rank[p][v] for p, v in m.place_values)
        for m in members
    ]


def assert_rank_keys_are_dominance(pre: PreOrchNet) -> None:
    members = ref_assignments(pre)
    keys = rank_keys(pre, members)
    for hi, hi_key in zip(members, keys):
        for lo, lo_key in zip(members, keys):
            assert all(map(ge, hi_key, lo_key)) == dominates(hi, lo)


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
    keys = rank_keys(pre, members)
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
                        return GridWitness(
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
            for hi_idx, hi_key in enumerate(keys):
                for lo_idx, lo_key in enumerate(keys):
                    if hi_idx == lo_idx or not all(map(ge, hi_key, lo_key)):
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
    keys = rank_keys(pre, members)
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
        for hi_idx, hi_key in enumerate(keys):
            for lo_idx, lo_key in enumerate(keys):
                if hi_idx == lo_idx or not all(map(ge, hi_key, lo_key)):
                    continue
                for omega in range(pre.omega_count):
                    hi_res = result_of(hi_idx, omega)
                    lo_res = result_of(lo_idx, omega)
                    if hi_res.values == lo_res.values and hi_res.latency < lo_res.latency:
                        return ConditionalReport(
                            outcome="non_monotonic",
                            path="brute_force",
                            grid_relative=True,
                            witness=GridWitness(
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
            assert grid_members(pre) == ref_assignments(pre), name
            if members <= 64:
                assert_rank_keys_are_dominance(pre)
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
    assert grid_members(pre) == ref_assignments(pre)
    assert_rank_keys_are_dominance(pre)
    for mode in ("adjacent", "all_pairs"):
        assert brute_force_monotony(pre, mode=mode) == ref_oracle(pre, mode=mode)
    assert brute_force_monotony(pre, tie_break="all") == ref_oracle(pre, tie_break="all")
    assert conditional_monotony_check(pre, force_brute=True) == ref_conditional_brute(pre)


def test_odd_grids_put_ten_before_two():
    pre = _odd_grid_pre(("2", "10"), ("3",))
    firsts = [dict(m.class_values)["a"] for m in grid_members(pre)]
    assert [str(v) for v in firsts] == ["10", "10", "2", "2"]


@pytest.mark.parametrize("grids", ODD_GRIDS)
@pytest.mark.parametrize("cap", [0, 1, 2, 3, 5, 8, 13])
def test_tight_caps_stop_at_the_same_pair(grids, cap):
    assert_every_cap_matches_the_reference(_odd_grid_pre(*grids), [cap])


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


def test_a_later_start_that_hands_over_the_race_matches_the_reference():
    # a needs s as well as p: starting s later hands p to b, whose tail is
    # short, so a raise of a minimal place's date finishes earlier
    net = net_from_arcs(
        {
            "a": (("p", "s"), ("qa",)),
            "b": (("p",), ("qb",)),
            "ta": (("qa",), ("ra",)),
            "tb": (("qb",), ("rb",)),
        }
    )
    pre = PreOrchNet(
        net=net,
        value_fn={t: ValueFnSpec(kind="tuple_of_inputs") for t in net.transitions},
        classes={t: frozenset({t}) for t in net.transitions},
        class_spec={c: const_latency(1) for c in ("a", "b", "ta", "tb")},
        class_grid={"a": (date_of("1"), date_of("2")), "b": (date_of("2"),), "ta": (date_of("10"),)},
        initial_date={"p": const_latency(0), "s": const_latency(0)},
        place_grid={"s": (date_of("0"), date_of("5"))},
        upward_closed=True,
    )
    for mode in ("adjacent", "all_pairs"):
        got = brute_force_monotony(pre, mode=mode)
        assert got == ref_oracle(pre, mode=mode), mode
        assert got.outcome == "non_monotonic"
        assert got.witness.hi.class_values == got.witness.lo.class_values
    assert brute_force_monotony(pre, tie_break="all") == ref_oracle(pre, tie_break="all")
    assert conditional_monotony_check(pre, force_brute=True) == ref_conditional_brute(pre)


def test_a_violation_at_the_second_omega_matches_the_reference():
    # raising a hands p to b; at omega 0 a's tail is free and the race ends
    # no sooner, at omega 1 the tail is slow and it ends sooner: a member's
    # outcome at one omega says nothing of its outcome at another
    net = net_from_arcs(
        {
            "a": (("p",), ("qa",)),
            "b": (("p",), ("qb",)),
            "ta": (("qa",), ("ra",)),
            "tb": (("qb",), ("rb",)),
        }
    )
    pre = PreOrchNet(
        net=net,
        value_fn={t: ValueFnSpec(kind="tuple_of_inputs") for t in net.transitions},
        classes={t: frozenset({t}) for t in net.transitions},
        class_spec={
            "a": const_latency(1),
            "b": const_latency(2),
            "ta": per_omega_latency(["0", "10"]),
            "tb": const_latency(0),
        },
        class_grid={"a": (date_of("1"), date_of("3"))},
        initial_date={"p": const_latency(0)},
        place_grid={},
        omega_count=2,
        upward_closed=True,
    )
    for mode in ("adjacent", "all_pairs"):
        got = brute_force_monotony(pre, mode=mode)
        assert got == ref_oracle(pre, mode=mode), mode
        assert got.outcome == "non_monotonic"
        assert (got.witness.omega, str(got.witness.latency_hi), str(got.witness.latency_lo)) == (1, "2", "11")
    assert brute_force_monotony(pre, tie_break="all") == ref_oracle(pre, tie_break="all")
    assert conditional_monotony_check(pre, force_brute=True) == ref_conditional_brute(pre)


# ---------------------------------------------------------------------------
# Drawn grids: every cap, both modes, both tie policies.  An all_pairs block
# is the members that one hi dominates; the sweep settles the rest of a
# block in one scan when its members are already evaluated, and walks it
# pair by pair otherwise.  Grids whose string order is not their value
# order ("10" before "2", "1/3" after "1") give blocks that reach members
# the walk has not evaluated yet.

GRID_POOL = ("0", "1/3", "1", "2", "10", "inf")
INVERSIONS = (("10", "2"), ("1", "1/3"))


@st.composite
def drawn_pres(draw) -> PreOrchNet:
    """The race of ``_odd_grid_pre`` with one class per transition, so
    that raising ``a`` can hand the race to a faster tail, and drawn
    grids, value functions, per-omega latencies and start dates; at most
    48 members."""
    omegas = draw(st.integers(1, 3))
    pool = st.sampled_from(GRID_POOL)
    finite = st.sampled_from(GRID_POOL[:-1])

    def grid(values, most, inverted=False):
        # with ``inverted``, two of the values sort by string against their order
        start = draw(st.sampled_from(INVERSIONS)) if inverted else ()
        more = st.lists(values, min_size=not start, max_size=most - len(start), unique=True)
        return tuple(date_of(v) for v in dict.fromkeys((*start, *draw(more))))

    def per_omega():
        return per_omega_latency(draw(finite) for _ in range(omegas))

    net = _odd_grid_pre(("1",), ("1",)).net
    transitions = sorted(net.transitions)
    class_grid = {"a": grid(pool, 3, inverted=True), "b": grid(pool, 2)}
    for t in ("ta", "tb"):
        if draw(st.booleans()):
            class_grid[t] = grid(pool, 2, inverted=True)
    fns = (ValueFnSpec(kind="tuple_of_inputs"), const_value_fn(atom("out")), None)
    value_fn = {}
    for t in transitions:
        fn = draw(st.sampled_from(fns))
        value_fn[t] = const_value_fn(atom(t)) if fn is None else fn
    return PreOrchNet(
        net=net,
        value_fn=value_fn,
        classes={t: frozenset({t}) for t in transitions},
        class_spec={t: per_omega() for t in transitions},
        class_grid=class_grid,
        initial_date={"p": per_omega()},
        place_grid={"p": grid(finite, 2)} if draw(st.booleans()) else {},
        omega_count=omegas,
        upward_closed=True,
    )


def assert_every_cap_matches_the_reference(pre: PreOrchNet, caps) -> None:
    with shared_races():
        for cap in caps:
            for mode in ("adjacent", "all_pairs"):
                got = brute_force_monotony(pre, mode=mode, eval_cap=cap)
                assert got == ref_oracle(pre, mode=mode, eval_cap=cap), (mode, cap)
            got = brute_force_monotony(pre, tie_break="all", eval_cap=cap)
            assert got == ref_oracle(pre, tie_break="all", eval_cap=cap), ("all", cap)
            got = conditional_monotony_check(pre, force_brute=True, eval_cap=cap)
            assert got == ref_conditional_brute(pre, eval_cap=cap), ("conditional", cap)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn_pres())
def test_drawn_grids_match_the_reference_at_every_cap(pre):
    evaluations = pre.member_count() * pre.omega_count
    assert_every_cap_matches_the_reference(pre, range(evaluations + 1))


def _block_starts(pre: PreOrchNet) -> list[bool]:
    """Per all_pairs pair in walk order: whether it opens its hi's block."""
    his = [hi for hi, _ in _dominating_pairs(pre.grid_index, "all_pairs")]
    return [n == 0 or hi != his[n - 1] for n, hi in enumerate(his)]


@pytest.mark.parametrize(
    "cap, opens_block",
    [(4, True), (9, False)],
    ids=["cap-runs-out-on-a-first-pair", "cap-runs-out-inside-a-block"],
)
def test_a_cap_that_runs_out_at_a_block_matches_the_reference(cap, opens_block):
    pre = _odd_grid_pre(*ODD_GRIDS[1])
    got = brute_force_monotony(pre, mode="all_pairs", eval_cap=cap)
    assert got.outcome == "undecided"
    assert _block_starts(pre)[got.pairs_checked - 1] is opens_block
    assert_every_cap_matches_the_reference(pre, [cap])


def test_a_violation_on_a_first_pair_after_its_block_was_evaluated_matches_the_reference():
    # a's grid sorts "0", "10", "2" and tb's "1", "1/3", so the block of
    # (a 10, tb 1) evaluates (a 10, tb 1/3) and (a 2, tb 1/3) before their
    # own blocks.  (a 10, tb 1/3) then violates on its block's first pair,
    # against (a 0, tb 1/3): b wins the race, and its tail is faster than
    # a's; the rest of that block is evaluated and holds no violation
    net = _odd_grid_pre(("1",), ("1",)).net
    pre = PreOrchNet(
        net=net,
        value_fn={t: ValueFnSpec(kind="tuple_of_inputs") for t in net.transitions},
        classes={t: frozenset({t}) for t in net.transitions},
        class_spec={t: const_latency(v) for t, v in (("a", 1), ("b", 10), ("ta", 1), ("tb", 1))},
        class_grid={
            "a": tuple(date_of(v) for v in ("2", "0", "10")),
            "b": (date_of("0"),),
            "tb": (date_of("1/3"), date_of("1")),
        },
        initial_date={"p": const_latency(0)},
        place_grid={},
        upward_closed=True,
    )
    got = brute_force_monotony(pre, mode="all_pairs")
    assert (got.outcome, got.pairs_checked) == ("non_monotonic", 7)
    assert _block_starts(pre)[got.pairs_checked - 1]
    assert_every_cap_matches_the_reference(pre, range(pre.member_count() + 1))


def test_an_unknown_mode_is_a_structure_error():
    pre = _odd_grid_pre(("2", "10"), ("3",))
    with pytest.raises(NetStructureError, match="unknown oracle mode 'diagonal'"):
        brute_force_monotony(pre, mode="diagonal")


# ---------------------------------------------------------------------------
# The reuse rule: under lex, raising a class that fired in no step of a
# member's run races to that member's run


def _raises_of_unfired_classes(pre: PreOrchNet) -> Counter:
    """Race every member of ``pre`` at every omega, and every raise of one
    class coordinate to its next larger value.  Where the class fired in no
    step of the member's lex run, the raised member must race to the same
    outcomes, value sets included.  Members whose race raises are counted
    and not raised (the sweep reuses only a memoised run)."""
    grid, kernel = pre.grid_index, pre.kernel
    seen = Counter()
    for omega in range(pre.omega_count):
        runs = {}
        for idx in range(grid.size):
            try:
                runs[idx] = kernel.race(idx, omega, values=True)
            except EvaluationError:
                seen["raised"] += 1
        for idx, (run,) in runs.items():
            seen["stalled"] += run.stalled
            fired = {kernel.class_coordinate[kernel.transitions[t]] for t in run.fired}
            for k in range(len(grid.class_ids)):
                d = idx // grid.strides[k] % len(grid.digits[k])
                up = grid.raises[k][d]
                if up is None:
                    continue
                seen["raises"] += 1
                if k in fired:
                    continue
                seen["reusable"] += 1
                raised = idx + (up - d) * grid.strides[k]
                got = runs[raised] if raised in runs else kernel.race(raised, omega, values=True)
                assert got == runs[idx], (grid.member(idx), grid.class_ids[k], omega)
    return seen


def _tagged_draw(rng: random.Random, size: int) -> PreOrchNet:
    """A tagged workflow (choice heads deliver their own atom) with ``eq``
    guards against those atoms, so a guard holds on one branch and stalls
    on the others, and grids drawn from fractional and infinite values."""
    gen = random_workflow(rng, size, tagged=True)
    base = gen.unfolded_pre()
    tags = [atom(h) for h in sorted(gen.choice_heads)] or [atom("none")]
    guard = {
        t: GuardSpec(
            op="eq",
            left=GuardOperand(kind="select", index=0),
            right=GuardOperand(kind="const", const=rng.choice(tags)),
        )
        for t in sorted(base.net.transitions)
        if rng.random() < 0.3
    }
    grids = {
        c: tuple(date_of(v) for v in rng.sample(POOL, rng.randint(1, 4))) for c in sorted(base.classes)
    }
    return replace(base, guard=guard, class_grid=grids)


def test_raising_a_class_that_never_fired_gives_the_same_run():
    seen = Counter()
    for name, pre in _corpus_pres():
        if pre.member_count() <= 4096:
            seen += _raises_of_unfired_classes(pre)
    assert seen == Counter(raises=898_776, reusable=295_443)

    rng = random.Random(1401)
    tagged, rich = Counter(), Counter()
    for _ in range(60):
        tagged += _raises_of_unfired_classes(_tagged_draw(rng, rng.randint(2, 8)))
    # guards that raise, expr latencies, place grids and several omegas
    for _ in range(60):
        rich += _raises_of_unfired_classes(random_pre(rng, rng.randint(2, 8)))
    assert tagged == Counter(raises=41_860, reusable=27_039, stalled=8_214)
    assert rich == Counter(raises=10_546, reusable=7_698, stalled=3_094, raised=1_802)


def test_reused_members_still_count_but_are_not_raced(monkeypatch):
    """Adjacent sweeps of the 100 clean corpus nets report the members and
    pairs they did before reuse, on fewer kernel races; under ``all``,
    where nothing is reused, every member evaluated is raced."""
    races = Counter()
    real_race = RaceKernel.race

    def counted(self, idx, omega, tie="lex", *args, **kwargs):
        races[tie] += 1
        return real_race(self, idx, omega, tie, *args, **kwargs)

    monkeypatch.setattr(RaceKernel, "race", counted)
    clean = [pre for name, pre in _corpus_pres() if name.startswith("pass")]
    assert len(clean) == 100
    members = pairs = 0
    for pre in clean:
        report = brute_force_monotony(pre, mode="adjacent")
        assert report.outcome == "monotonic"
        members += report.members_checked
        pairs += report.pairs_checked
    assert (members, pairs) == (82_000, 336_600)
    assert races == {"lex": 50_725}
    assert races["lex"] < members

    # a monotonic all-pairs sweep evaluates every member at every omega
    evaluated = 0
    for pre in clean:
        if pre.member_count() <= 256:
            assert brute_force_monotony(pre, tie_break="all").outcome == "monotonic"
            evaluated += pre.member_count() * pre.omega_count
    assert races["all"] == evaluated == 8_272
