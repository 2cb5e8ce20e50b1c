"""Differential test: the race loop against the recursive explorer.

The reference (``tests/race_reference.py``) is the race as it was before
the loop: one recursive call per step that copies every dict and
re-evaluates every enabled transition, ``stalled`` decided after the run
by looking for an unfired transition in conflict with nothing that
occurred, and maximal transitions found through the ``above`` table.
Every ``TimedRun`` field (occurring, dates, values, step order, tie
events, stalled) must come out equal, under lex and under ``all``.
"""

import random
from collections import Counter
from functools import lru_cache

import pytest

from orchnet import (
    CapExceededError,
    OrchNet,
    atom,
    const_latency,
    const_value_fn,
    date_of,
    end_to_end,
    execute,
    execute_all,
    net_from_arcs,
    summarize_run,
)

from .race_reference import ref_execute, ref_execute_all, ref_run_values
from .randnets import GRID, standard_corpus


def assert_same_races(orch, omega, cap=10_000) -> Counter:
    """Compare both tie policies on one member; count what was compared."""
    seen = Counter()
    run = execute(orch, omega)
    assert run == ref_execute(orch, omega)
    try:
        expected = ref_execute_all(orch, omega, cap)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            execute_all(orch, omega, cap)
        seen["capped"] += 1
        return seen
    got = execute_all(orch, omega, cap)
    assert got == expected
    for r in (run, *got):
        assert summarize_run(orch, r).values == ref_run_values(orch, r)
        seen["stalled" if r.stalled else "complete"] += 1
    seen["members"] += 1
    seen["runs"] += 1 + len(got)
    return seen


# ---------------------------------------------------------------------------
# The 200-net acceptance corpus


@lru_cache(maxsize=1)
def _corpus_pres():
    return tuple((gen.name, gen.unfolded_pre()) for gen in standard_corpus(total=200))


def test_sampled_grid_members_match_the_reference():
    rng = random.Random(4401)
    seen = Counter()
    for name, pre in _corpus_pres():
        grid = pre.grid_index
        for idx in {0, grid.size - 1, *(rng.randrange(grid.size) for _ in range(6))}:
            orch = pre.instantiate(grid.member(idx))
            for omega in range(pre.omega_count):
                seen += assert_same_races(orch, omega)
    # every run completes, and ties branch into 2.5 runs per member on average
    assert seen == Counter(members=1_567, runs=3_849, complete=3_849)


def test_infinite_latency_draws_match_the_reference():
    """Each event draws its own latency, sometimes infinite, so many runs
    stop with only infinite-date rivals left enabled."""
    rng = random.Random(4402)
    dates = (*GRID, date_of("inf"))
    seen = Counter()
    for name, pre in _corpus_pres():
        for _ in range(4):
            latency = {
                t: const_latency(rng.choices(dates, weights=(3, 3, 2, 2, 2))[0])
                for t in sorted(pre.net.transitions)
            }
            seen += assert_same_races(pre.assemble(latency, pre.initial_date), 0)
    assert seen == Counter(members=800, runs=1_749, complete=1_213, stalled=536)


def _orch(arcs, latency) -> OrchNet:
    net = net_from_arcs(arcs)
    return OrchNet(
        net=net,
        latency={t: const_latency(latency[t]) for t in net.transitions},
        value_fn={t: const_value_fn(atom(t)) for t in net.transitions},
        initial_date={p: const_latency(0) for p in net.minimal_places},
    )


@pytest.mark.parametrize("cap", [1, 9, 10, 63, 64, 100])
def test_tie_cap_counts_the_same_branches(cap):
    # four independent branches tie at 1: 4 + 3 + 2 + 1 = 10 branches on the
    # first path, 4 + 12 + 24 + 24 = 64 over the whole tree, one configuration
    arcs = {f"t{i}": ((f"p{i}",), (f"q{i}",)) for i in range(4)}
    orch = _orch(arcs, {t: 1 for t in arcs})
    seen = assert_same_races(orch, 0, cap)
    assert seen["capped"] == (cap < 64)


def test_the_first_resolution_in_depth_first_order_stands_for_its_configuration():
    # a, b, c tie at 0; a rivals both b and c, which are concurrent, so
    # {b, c} is reached as b-then-c and as c-then-b, and b comes first
    arcs = {"a": (("p", "q"), ("r",)), "b": (("p",), ("s",)), "c": (("q",), ("u",))}
    orch = _orch(arcs, {t: 0 for t in arcs})
    assert_same_races(orch, 0)
    assert [r.step_order for r in execute_all(orch, 0)] == [("a",), ("b", "c")]


# ---------------------------------------------------------------------------
# Long runs


def test_a_1500_transition_chain_races_to_its_latency():
    # the recursive explorer raised RecursionError past about 980 steps
    n = 1_500
    arcs = {f"t{i:04d}": ((f"p{i:04d}",), (f"p{i + 1:04d}",)) for i in range(n)}
    orch = _orch(arcs, {t: i % 3 for i, t in enumerate(arcs)})
    result = end_to_end(orch, 0)
    assert result.latency == date_of(str(sum(i % 3 for i in range(n))))
    assert result.values == frozenset({atom(f"t{n - 1:04d}")})
    assert not result.run.stalled
    assert len(result.run.step_order) == n
    assert execute_all(orch, 0) == (result.run,)
