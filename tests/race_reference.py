"""The recursive race explorer, kept as the reference that the race loop
(``timed.execute``, ``timed.resolutions`` and ``PreOrchNet.kernel``) is
compared against.

One recursive call per step copies every dict and re-evaluates every
enabled transition through ``transition_date``; ``stalled`` is
decided after the run by looking for an unfired transition in conflict
with nothing that occurred, and maximal transitions are found through the
``above`` table.  Dropping the per-step candidate record from the runs it
returns is the only change to it.  ``ref_latency`` and
``assert_locally_optimal`` are checks built on the same slow path.
``transition_date`` dates one transition from its preset's dates and
values; ``tests/test_relations_reference.py`` builds its reference of
``eval_dates`` on it too.  ``compiled_tables`` is the general rule that
``_RaceNet.compile`` shortens for one-place presets and postsets.
"""

from __future__ import annotations

from orchnet.attributes import DATE_INF, DATE_ZERO, date_max
from orchnet.errors import CapExceededError
from orchnet.nets import configuration_of
from orchnet.timed import TimedRun


def transition_date(orch, t, omega, dates, values):
    """The date and value of ``t`` once its preset is dated: the latest
    preset date plus its latency (infinite on a false guard)."""
    inputs = tuple(values[p] for p in sorted(orch.net.preset[t]))
    delay, out_value = orch.delay_of(t, omega, inputs)
    base = date_max(dates[p] for p in orch.net.preset[t])
    return base + delay, out_value


def ref_run_race(orch, omega, choose):
    net = orch.net

    init_dates = {p: orch.initial_date[p].value_at(omega) for p in net.minimal_places}
    init_values = {p: orch.initial_value[p] for p in net.minimal_places}

    runs = {}

    def finish(fired, dates, values, ties):
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
                tie_events=tuple(ties),
                stalled=stalled,
            )

    def explore(fired, marked, dates, values, ties):
        candidates = []
        fired_set = set(fired)
        for t in sorted(net.transitions - fired_set):
            if not net.preset[t] <= marked:
                continue
            d, v = transition_date(orch, t, omega, dates, values)
            candidates.append((t, d, v))
        finite = [(t, d, v) for (t, d, v) in candidates if d.is_finite]
        if not finite:
            finish(fired, dict(dates), dict(values), ties)
            return
        best = min(d for _, d, _ in finite)
        tied = [(t, d, v) for (t, d, v) in finite if d == best]
        tied_names = frozenset(t for t, _, _ in tied)
        new_ties = ties + [tied_names] if len(tied) > 1 else ties
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
                new_ties,
            )

    explore([], set(net.minimal_places), dict(init_dates), dict(init_values), [])
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
    # a transition of the run is maximal when it is in no other one's cone
    below = set().union(*(orch.relations.cone(u) - {u} for u in ts))
    return frozenset(run.values[t] for t in ts if t not in below)


def ref_latency(run):
    """The end-to-end latency of a run: infinite when it stalled."""
    return DATE_INF if run.stalled else max(run.dates.values(), default=DATE_ZERO)


# ---------------------------------------------------------------------------
# The race policy, step by step


def assert_locally_optimal(orch, run) -> int:
    """Replay a lex run and check the race policy at every step: the fired
    transition has the least finite date among the transitions enabled
    before it, and the least id among any tie; after the last step no
    finite date is left.  Returns the number of steps checked.

    Every enabled transition's date is recomputed from scratch, through
    ``transition_date``, so this costs O(N) per step.
    """
    net, omega = orch.net, run.omega
    dates = {p: orch.initial_date[p].value_at(omega) for p in net.minimal_places}
    values = {p: orch.initial_value[p] for p in net.minimal_places}
    marked = set(net.minimal_places)

    def finite_enabled():
        enabled = (t for t in sorted(net.transitions) if net.preset[t] <= marked)
        dated = {t: transition_date(orch, t, omega, dates, values) for t in enabled}
        return {t: dv for t, dv in dated.items() if dv[0].is_finite}

    for t in run.step_order:
        finite = finite_enabled()
        assert t in finite, (t, sorted(finite))
        best = min(d for d, _ in finite.values())
        assert finite[t][0] == best, (t, finite[t][0], best)
        assert t == min(u for u, (d, _) in finite.items() if d == best)
        d, v = finite[t]
        marked -= net.preset[t]
        marked |= net.postset[t]
        for n in (t, *net.postset[t]):
            dates[n] = d
            values[n] = v
    assert not finite_enabled()
    return len(run.step_order)


def compiled_tables(rn, i):
    """The ``sources``, ``feeds`` and ``rivals`` that ``_RaceNet.compile(i)``
    gives transition i, by the general rule for any preset and postset."""
    pre, post, number = rn.net.preset, rn.net.postset, rn.number
    t = rn.names[i]
    sources = tuple(
        number[next(iter(pre[p]))] if pre[p] else rn.place_source[p] for p in sorted(pre[t])
    )
    fed: dict[int, int] = {}
    for p in post[t]:
        for c in post[p]:
            fed[number[c]] = fed.get(number[c], 0) + 1
    rivals = tuple(sorted({number[c] for p in pre[t] for c in post[p]} - {i}))
    return sources, tuple(sorted(fed.items())), rivals
