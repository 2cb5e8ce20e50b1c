"""Differential test: the race kernel against the recursive race explorer.

``PreOrchNet.kernel`` races grid members without building their
``OrchNet``.  The reference is the explorer of
``tests/race_reference.py`` on ``pre.instantiate(member)``.  For every
member compared, under lex and under ``all``, each outcome must agree on
latency, firing order, stalled flag and value set, in the same order;
where the reference raises, the kernel must raise the same error type
with the same message.
"""

import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from orchnet import (
    CapExceededError,
    EvaluationError,
    OrchNet,
    PreOrchNet,
    atom,
    build,
    const_latency,
    const_value_fn,
    date_of,
    load_corpus,
    net_from_arcs,
    num,
    per_omega_latency,
)
from orchnet.specs import (
    INFINITE_LATENCY,
    GuardOperand,
    GuardSpec,
    LatencyExpr,
    LatencySpec,
    ValueFnSpec,
)
from orchnet.timed import _date

from .race_reference import (
    compiled_tables,
    ref_execute,
    ref_execute_all,
    ref_latency,
    ref_run_values,
)
from .randnets import random_workflow, standard_corpus


def ref_resolutions(orch, omega, tie, cap):
    return (ref_execute(orch, omega),) if tie == "lex" else ref_execute_all(orch, omega, cap)


def assert_kernel_matches(pre: PreOrchNet, idx: int, omega: int, tie: str, cap: int = 10_000) -> Counter:
    """Compare one member at one omega; count what was compared."""
    kernel = pre.kernel
    member = pre.grid_index.member(idx)
    orch = pre.instantiate(member)
    try:
        expected = ref_resolutions(orch, omega, tie, cap)
    except (EvaluationError, CapExceededError) as exc:
        with pytest.raises(type(exc)) as raised:
            kernel.race(idx, omega, tie, cap, values=True)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc), member
        return Counter(raised=1)
    got = kernel.race(idx, omega, tie, cap, values=True)
    assert [
        (_date(r.latency), tuple(kernel.transitions[t] for t in r.fired), r.stalled, r.values)
        for r in got
    ] == [
        (ref_latency(r), r.step_order, r.stalled, ref_run_values(orch, r)) for r in expected
    ], (member, omega, tie)
    assert [r.latency for r in kernel.race(idx, omega, tie, cap)] == [r.latency for r in got]
    seen = Counter(members=1, runs=len(got))
    seen.update("stalled" if r.stalled else "complete" for r in got)
    return seen


def assert_members_match(pre: PreOrchNet, indices) -> Counter:
    seen = Counter()
    for idx in indices:
        for omega in range(pre.omega_count):
            for tie in ("lex", "all"):
                seen += assert_kernel_matches(pre, idx, omega, tie)
    return seen


# ---------------------------------------------------------------------------
# The 200-net acceptance corpus and the bundled examples


@lru_cache(maxsize=1)
def _corpus_pres():
    return tuple((gen.name, gen.unfolded_pre()) for gen in standard_corpus(total=200))


def test_the_race_compiles_each_transition_by_the_general_rule():
    # one-place presets and postsets take a shorter path in ``compile``
    pres = [pre for _, pre in _corpus_pres()]
    pres += [build(load_corpus(name)).pre for name in ("branch-race", "channel-grab")]
    presets, postsets = set(), set()
    for pre in pres:
        rn = pre.kernel.race_net
        for i, t in enumerate(rn.names):
            rn.compile(i)
            want = compiled_tables(rn, i)
            assert (rn.sources[i], rn.feeds[i], rn.rivals[i]) == want, t
            presets.add(len(pre.net.preset[t]))
            postsets.add(len(pre.net.postset[t]))
    assert {1, 2} <= presets and {1, 2} <= postsets  # both paths of each


def test_sampled_corpus_members_match():
    rng = random.Random(6601)
    seen = Counter()
    for name, pre in _corpus_pres():
        size = pre.grid_index.size
        seen += assert_members_match(pre, {0, size - 1, *(rng.randrange(size) for _ in range(4))})
    assert seen == Counter(members=2_364, runs=3_001, complete=3_001)


@pytest.mark.parametrize("name", ["branch-race", "channel-grab", "choice-join", "overlap-cluster"])
def test_every_member_of_the_corpus_examples_matches(name):
    pre = build(load_corpus(name)).pre
    seen = assert_members_match(pre, range(pre.grid_index.size))
    assert seen["members"] == 2 * pre.grid_index.size * pre.omega_count
    assert not seen["raised"]


# ---------------------------------------------------------------------------
# Seeded draws: guards, expr latencies, place grids, several omegas,
# fractional and infinite grid values, and value functions that raise

POOL = ("0", "1/3", "0.5", "1", "2", "5/4", "inf")


def _values(rng, omegas):
    return ValueFnSpec(kind="per_omega", table=tuple(num(rng.choice("0123")) for _ in range(omegas)))


def _value_fn(rng, omegas):
    roll = rng.random()
    if roll < 0.05:
        return ValueFnSpec(kind="select", index=7)  # raises: no eighth input
    if roll < 0.1:
        return const_value_fn(atom("x"))  # sums and expr inputs over it raise
    if roll < 0.45:
        return ValueFnSpec(kind="sum")
    if roll < 0.7:
        return ValueFnSpec(kind="select", index=0)
    return _values(rng, omegas)


def _latency(rng, omegas):
    roll = rng.random()
    if roll < 0.3:
        return LatencySpec(
            kind="expr",
            expr=LatencyExpr(
                op=rng.choice(("add", "max", "min")),
                args=(
                    LatencyExpr(op="input", index=0),
                    LatencyExpr(op="const", const=date_of(rng.choice(POOL))),
                ),
            ),
        )
    if roll < 0.5:
        return per_omega_latency(rng.choice(POOL) for _ in range(omegas))
    if roll < 0.55:
        return INFINITE_LATENCY
    return const_latency(rng.choice(POOL))


def _grid(rng):
    return tuple(date_of(v) for v in rng.sample(POOL, rng.randint(1, 3)))


def random_pre(rng: random.Random, size: int) -> PreOrchNet:
    base = random_workflow(rng, size, tagged=False).unfolded_pre()
    omegas = rng.randint(1, 3)
    transitions = sorted(base.net.transitions)
    places = sorted(base.net.minimal_places)
    guard = {}
    for t in transitions:
        if rng.random() < 0.25:
            guard[t] = GuardSpec(
                op=rng.choice(("eq", "lt", "leq")),
                left=GuardOperand(kind="select", index=0),
                right=GuardOperand(kind="const", const=num(rng.choice("0123"))),
            )
    return replace(
        base,
        value_fn={t: _value_fn(rng, omegas) for t in transitions},
        class_spec={c: _latency(rng, omegas) for c in sorted(base.classes)},
        class_grid={c: _grid(rng) for c in sorted(base.classes) if rng.random() < 0.6},
        initial_date={p: per_omega_latency(rng.choice(POOL[:-1]) for _ in range(omegas)) for p in places},
        place_grid={p: _grid(rng) for p in places if rng.random() < 0.5},
        omega_count=omegas,
        guard=guard,
        initial_value={p: num(rng.choice("0123")) for p in places},
    )


def test_seeded_draws_match():
    rng = random.Random(6602)
    seen = Counter()
    for _ in range(150):
        pre = random_pre(rng, rng.randint(2, 8))
        size = pre.grid_index.size
        seen += assert_members_match(pre, {0, size - 1, *(rng.randrange(size) for _ in range(4))})
    # every path is taken: complete and stalled runs, raised errors, ties
    assert seen == Counter(members=2_001, runs=2_064, complete=1_015, stalled=1_049, raised=613)


def test_only_the_members_that_enable_a_raising_transition_raise():
    # c's value function raises; c is enabled only when b wins the race for p
    net = net_from_arcs(
        {"a": (("p",), ("qa",)), "b": (("p",), ("qb",)), "c": (("qb",), ("r",))}
    )
    pre = PreOrchNet(
        net=net,
        value_fn={
            "a": ValueFnSpec(kind="select", index=0),
            "b": ValueFnSpec(kind="select", index=0),
            "c": ValueFnSpec(kind="select", index=3),
        },
        classes={"a": frozenset({"a"}), "b": frozenset({"b", "c"})},
        class_spec={"a": const_latency(1), "b": const_latency(2)},
        class_grid={"a": (date_of("1"), date_of("inf"))},
        initial_date={"p": const_latency(0)},
        place_grid={},
    )
    seen = assert_members_match(pre, range(pre.grid_index.size))
    assert seen == Counter(members=2, runs=2, complete=2, raised=2)


def test_the_kernel_evaluates_only_what_a_race_enables(monkeypatch):
    # a beats b for p in every member, so c, which consumes b's token, is
    # never enabled and never evaluated
    net = net_from_arcs(
        {"a": (("p",), ("qa",)), "b": (("p",), ("qb",)), "c": (("qb",), ("r",))}
    )
    pre = PreOrchNet(
        net=net,
        value_fn={t: const_value_fn(atom(t)) for t in net.transitions},
        classes={"a": frozenset({"a"}), "b": frozenset({"b", "c"})},
        class_spec={"a": const_latency(1), "b": const_latency(5)},
        class_grid={"a": (date_of("1"), date_of("2"))},
        initial_date={"p": const_latency(0)},
        place_grid={},
    )
    evaluated = []
    real_delay_of = OrchNet.delay_of

    def counted(orch, t, omega, inputs):
        evaluated.append(t)
        return real_delay_of(orch, t, omega, inputs)

    monkeypatch.setattr(OrchNet, "delay_of", counted)
    for idx in range(pre.grid_index.size):
        for tie in ("lex", "all"):
            (run,) = pre.kernel.race(idx, 0, tie)
            assert [pre.kernel.transitions[t] for t in run.fired] == ["a"]
    assert evaluated == ["a", "b"]


# ---------------------------------------------------------------------------
# The tie cap


@pytest.mark.parametrize("cap", [1, 9, 10, 64])
def test_a_four_way_tie_charges_the_same_branches(cap):
    # four independent branches tie at 1: 4 + 3 + 2 + 1 = 10 branches on
    # the first path, 64 over the whole tree, one configuration
    net = net_from_arcs({f"t{i}": ((f"p{i}",), (f"q{i}",)) for i in range(4)})
    pre = PreOrchNet(
        net=net,
        value_fn={t: const_value_fn(atom(t)) for t in net.transitions},
        classes={"all": net.transitions},
        class_spec={"all": const_latency(1)},
        class_grid={},
        initial_date={p: const_latency(0) for p in net.minimal_places},
        place_grid={},
    )
    seen = assert_kernel_matches(pre, 0, 0, "all", cap)
    assert seen["raised"] == (cap < 64)
    assert assert_kernel_matches(pre, 0, 0, "lex", cap) == Counter(members=1, runs=1, complete=1)
