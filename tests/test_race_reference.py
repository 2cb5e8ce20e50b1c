"""Differential test: the iterative race loop against the recursive explorer.

The reference below is the race as it was before the loop: one recursive
call per step that copies every dict and re-evaluates every enabled
transition, ``stalled`` decided after the run by looking for an unfired
transition in conflict with nothing that occurred, and maximal transitions
found through the ``above`` table.  Every ``TimedRun`` field (occurring,
dates, values, step order, steps with their candidates, tie events,
stalled) must come out equal, under lex and under ``all``.
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
from orchnet.nets import configuration_of
from orchnet.timed import Step, TimedRun

from .randnets import GRID, standard_corpus

# ---------------------------------------------------------------------------
# Reference implementation


def ref_run_race(orch, omega, choose):
    net = orch.net

    init_dates = {p: orch.initial_date[p].value_at(omega) for p in net.minimal_places}
    init_values = {p: orch.initial_value[p] for p in net.minimal_places}

    runs = {}

    def finish(fired, dates, values, steps, ties):
        occ = configuration_of(net, frozenset(fired))
        stalled = ref_has_open_future(orch, frozenset(fired))
        key = frozenset(fired)
        if key not in runs:
            runs[key] = TimedRun(
                omega=omega,
                occurring=occ,
                dates={n: dates[n] for n in occ},
                values={n: values[n] for n in occ},
                step_order=tuple(fired),
                steps=tuple(steps),
                tie_events=tuple(ties),
                stalled=stalled,
            )

    def explore(fired, marked, dates, values, steps, ties):
        candidates = []
        fired_set = set(fired)
        for t in sorted(net.transitions - fired_set):
            if not net.preset[t] <= marked:
                continue
            d, v = orch.transition_date(t, omega, dates, values)
            candidates.append((t, d, v))
        finite = [(t, d, v) for (t, d, v) in candidates if d.is_finite]
        if not finite:
            finish(fired, dict(dates), dict(values), steps, ties)
            return
        best = min(d for _, d, _ in finite)
        tied = [(t, d, v) for (t, d, v) in finite if d == best]
        tied_names = frozenset(t for t, _, _ in tied)
        new_ties = ties + [tied_names] if len(tied) > 1 else ties
        step_candidates = tuple((t, d) for t, d, _ in candidates)
        for t in choose([t for t, _, _ in tied]):
            d, v = next((d, v) for (tt, d, v) in tied if tt == t)
            next_dates = dict(dates)
            next_values = dict(values)
            next_dates[t] = d
            next_values[t] = v
            for p in net.postset[t]:
                next_dates[p] = d
                next_values[p] = v
            explore(
                fired + [t],
                (marked - net.preset[t]) | net.postset[t],
                next_dates,
                next_values,
                steps + [Step(fired=t, date=d, candidates=step_candidates)],
                new_ties,
            )

    explore([], set(net.minimal_places), dict(init_dates), dict(init_values), [], [])
    return sorted(runs.values(), key=lambda r: tuple(sorted(r.occurring)))


def ref_has_open_future(orch, fired):
    net, rel = orch.net, orch.relations
    occ = configuration_of(net, fired)
    for t in sorted(net.transitions - fired):
        if all(not rel.in_conflict(t, n) for n in occ):
            return True
    return False


def ref_execute(orch, omega):
    orch.check_omega(omega)
    (run,) = ref_run_race(orch, omega, lambda tied: [min(tied)])
    return run


def ref_execute_all(orch, omega, cap=10_000):
    orch.check_omega(omega)
    branches = 0

    def choose(tied):
        nonlocal branches
        branches += len(tied)
        if branches > cap:
            raise CapExceededError(f"tie enumeration exceeded cap {cap}")
        return sorted(tied)

    return tuple(ref_run_race(orch, omega, choose))


def ref_run_values(orch, run):
    ts = run.occurring & orch.net.transitions
    return frozenset(run.values[t] for t in ts if not (orch.relations.above[t] & ts))


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
