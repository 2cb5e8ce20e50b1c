"""Timed execution of occurrence nets under the race policy.

An OrchNet attaches to each transition a latency function, a value function,
and optionally a guard, plus initial-date functions for minimal places.
Nondeterminism (in latencies, values, initial dates) is resolved by a daemon
index ``omega`` ranging over ``range(omega_count)``.

Token propagation: a transition's output value is its value function applied
to the preset token values; its date is the max of the preset dates plus its
latency.  A false guard makes the date infinite, which means the transition
never occurs.

The race policy repeatedly fires, among the transitions enabled at the
current cut, one with the smallest date.  Ties are resolved by the declared
policy: lexicographic (deterministic default) or enumeration of every
distinct resolution.  A run whose remaining enabled transitions all have
infinite dates stops there: the fired prefix is the occurring configuration,
the run is flagged stalled, and the end-to-end latency is infinite.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .attributes import DATE_INF, DATE_ZERO, ExtendedDate, Value, atom, date_max
from .errors import CapExceededError, EvaluationError, NetStructureError
from .nets import (
    Net,
    NodeRelations,
    configuration_of,
    is_conflict_free,
    maximal_transitions,
    net_from_arcs,
    require_occurrence_net,
)
from .specs import GuardSpec, LatencySpec, ValueFnSpec, const_latency


@dataclass(frozen=True)
class OrchNet:
    """An occurrence net with value, latency, guard, and initial-date specs.

    Every transition has a latency spec and every minimal place an initial
    date.  A transition without a value function gives the atom of its own
    id, as a minimal place without an initial value holds the atom of its
    own id.  An unfolding's family stores the atom of the carrier
    transition for each event that is not its own carrier transition.
    """

    net: Net
    latency: dict[str, LatencySpec]
    value_fn: dict[str, ValueFnSpec]
    initial_date: dict[str, LatencySpec]
    omega_count: int = 1
    guard: dict[str, GuardSpec] = field(default_factory=dict)
    initial_value: dict[str, Value] = field(default_factory=dict)

    def __post_init__(self) -> None:
        net = self.net
        require_occurrence_net(net)
        for specs, nodes, what in (
            (self.latency, net.transitions, "transitions without latency specs"),
            (self.initial_date, net.minimal_places, "minimal places without initial dates"),
        ):
            if not specs.keys() >= nodes:
                raise NetStructureError(f"{what}: {sorted(nodes - specs.keys())}")
        if self.omega_count < 1:
            raise NetStructureError("omega_count must be at least 1")
        if not net.minimal_places <= self.initial_value.keys():
            # fill the atom(p) defaults into a fresh dict, not the caller's
            defaults = {p: atom(p) for p in net.minimal_places}
            object.__setattr__(self, "initial_value", defaults | self.initial_value)

    @property
    def relations(self) -> NodeRelations:
        return require_occurrence_net(self.net)

    def check_omega(self, omega: int) -> None:
        if not 0 <= omega < self.omega_count:
            raise EvaluationError(f"omega {omega} outside range(0, {self.omega_count})")

    def delay_of(self, t: str, omega: int, inputs: tuple[Value, ...]) -> tuple[ExtendedDate, Value]:
        """The latency of ``t`` (infinite on a false guard) and its output
        value, on its preset's token values in sorted place order.  The
        value is evaluated first, then the guard, then the latency."""
        fn = self.value_fn.get(t)
        out_value = atom(t) if fn is None else fn.evaluate(omega, inputs)
        guard = self.guard.get(t)
        if guard is not None and not guard.evaluate(inputs):
            return DATE_INF, out_value
        return self.latency[t].evaluate(omega, inputs), out_value


@dataclass(frozen=True)
class PrefixEvaluation:
    dates: dict[str, ExtendedDate]
    values: dict[str, Value]


def eval_dates(orch: OrchNet, omega: int, prefix: frozenset[str]) -> PrefixEvaluation:
    """Evaluate dates and values over a causally closed, conflict-free prefix.

    Pure structural evaluation, in a topological walk of the prefix alone
    that takes the least id first among the nodes ready together: minimal
    places take their initial dates, other places copy their producer,
    transitions take max of preset dates plus ``OrchNet.delay_of``
    (infinite on a false guard).  A node the walk never reaches has a
    parent outside the prefix, or in its past: the prefix is not causally
    closed there.  This is the one evaluator of a prefix's dates.
    """
    orch.check_omega(omega)
    net = orch.net
    if not prefix <= net.nodes:
        raise NetStructureError(f"prefix contains unknown nodes: {sorted(prefix - net.nodes)}")
    waiting = {n: len(net.preset[n]) for n in prefix}
    ready = [n for n, k in waiting.items() if not k]
    heapify(ready)
    ordered = []
    while ready:
        node = heappop(ready)
        ordered.append(node)
        for nxt in net.postset[node]:
            if nxt in waiting:
                k = waiting[nxt] = waiting[nxt] - 1
                if not k:
                    heappush(ready, nxt)
    if len(ordered) != len(prefix):
        cut = sorted(n for n, k in waiting.items() if k)
        raise NetStructureError(f"prefix is not causally closed at {cut}")
    if not is_conflict_free(net, prefix):
        raise NetStructureError("prefix is not conflict-free")

    # the prefix is causally closed, so every producer and preset is in it
    dates: dict[str, ExtendedDate] = {}
    values: dict[str, Value] = {}
    for node in ordered:
        pre = net.preset[node]
        if node in net.places:
            if pre:
                (producer,) = pre
                dates[node], values[node] = dates[producer], values[producer]
            else:
                dates[node] = orch.initial_date[node].value_at(omega)
                values[node] = orch.initial_value[node]
        else:
            places = sorted(pre)
            delay, values[node] = orch.delay_of(node, omega, tuple(values[p] for p in places))
            dates[node] = date_max(dates[p] for p in places) + delay
    return PrefixEvaluation(dates=dates, values=values)


def latency_of_prefix(orch: OrchNet, omega: int, prefix: frozenset[str]) -> ExtendedDate:
    """Max date over the prefix; the empty prefix yields 0 by convention."""
    if not prefix:
        return DATE_ZERO
    ev = eval_dates(orch, omega, prefix)
    return date_max(ev.dates.values())


@dataclass(frozen=True)
class TimedRun:
    omega: int
    occurring: frozenset[str]
    dates: dict[str, ExtendedDate]
    values: dict[str, Value]
    step_order: tuple[str, ...]
    tie_events: tuple[frozenset[str], ...]
    stalled: bool

    @property
    def fired(self) -> frozenset[str]:
        return frozenset(self.step_order)


def _timed_runs(orch: OrchNet, omega: int, branch: bool, cap: int) -> list[TimedRun]:
    """The runs of ``orch`` at ``omega`` on the race loop, one per distinct
    fired set (one alone without ``branch``).

    A transition's value, guard and latency are evaluated when the race
    first enables it, so an EvaluationError comes only from a transition
    that could fire.  The loop's dates are exact: ints and Fractions, with
    ``INFINITY`` for the infinite date.
    """
    orch.check_omega(omega)
    net = orch.net
    rn = _race_net(net)
    names, sources = rn.names, rn.sources
    initial = {p: orch.initial_date[p].value_at(omega) for p in rn.places}
    dates = [0] * len(names) + [_number(d) for d in initial.values()]
    values: list[Value | None] = [None] * len(names)
    values += [orch.initial_value[p] for p in rn.places]

    def evaluate(c: int):
        if sources[c] is None:
            rn.compile(c)
        delay, values[c] = orch.delay_of(names[c], omega, tuple(values[s] for s in sources[c]))
        return _number(delay)

    runs = []
    post = net.postset
    latency = [None] * len(names)  # each given by ``evaluate`` when first enabled
    for fired, stalled, dates, ties in _race(rn, latency, dates, evaluate, branch, cap, []):
        # each fired transition's date and value, and its postset's
        out_dates = dict(initial)
        out_values = {p: orch.initial_value[p] for p in net.minimal_places}
        for t in fired:
            date, value = _date(dates[t]), values[t]
            for node in (names[t], *post[names[t]]):
                out_dates[node] = date
                out_values[node] = value
        step_order = tuple(names[t] for t in fired)
        runs.append(
            TimedRun(
                omega=omega,
                occurring=configuration_of(net, frozenset(step_order)),
                dates=out_dates,
                values=out_values,
                step_order=step_order,
                tie_events=_tie_names(ties, names),
                stalled=stalled,
            )
        )
    return runs


def _tie_names(ties: list[list[int]], names: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """The names in each recorded tie.  A W-way tie drains one member per
    step, so a tie is mostly the one before it less its least member; its
    set is then a copy of the one before, less one name."""
    out: list[frozenset[str]] = []
    last: list[int] = []
    for tie in ties:
        if len(tie) + 1 == len(last) and tie == last[1:]:
            out.append(out[-1] - {names[last[0]]})
        else:
            out.append(frozenset([names[u] for u in tie]))
        last = tie
    return tuple(out)


def execute(orch: OrchNet, omega: int) -> TimedRun:
    """Run the race policy with the deterministic tie policy ("lex": of
    tied transitions, the smallest id fires first); ``resolutions`` gives
    every tie resolution."""
    (run,) = _timed_runs(orch, omega, False, 0)
    return run


def execute_all(orch: OrchNet, omega: int, cap: int = 10_000) -> tuple[TimedRun, ...]:
    """The runs of every distinct tie resolution; see ``resolutions``."""
    return tuple(outcome.run for outcome in resolutions(orch, omega, "all", cap))


@dataclass(frozen=True)
class EndToEnd:
    latency: ExtendedDate
    values: frozenset[Value]
    run: TimedRun


def end_to_end(orch: OrchNet, omega: int) -> EndToEnd:
    """End-to-end latency and the value set of the occurring configuration.

    A stalled run (every remaining enabled transition has an infinite date)
    reports infinite latency; the value set always comes from the maximal
    transitions that actually occurred.
    """
    return summarize_run(orch, execute(orch, omega))


def resolutions(
    orch: OrchNet, omega: int, tie: str = "lex", cap: int = 10_000
) -> tuple[EndToEnd, ...]:
    """The end-to-end outcomes of one member at one omega under a tie policy.

    "lex" gives the single deterministic run.  "all" gives one outcome per
    distinct tie resolution, deduplicated by occurring configuration
    (permuting tied concurrent transitions changes nothing) and ordered by
    sorted occurring configuration; branching on more than ``cap`` tied
    transitions in all raises CapExceededError.
    """
    if tie == "lex":
        return (end_to_end(orch, omega),)
    if tie != "all":
        raise NetStructureError(f"unknown tie_break {tie!r}")
    return tuple(summarize_run(orch, run) for run in _timed_runs(orch, omega, True, cap))


def summarize_run(orch: OrchNet, run: TimedRun) -> EndToEnd:
    if run.stalled:
        total = DATE_INF
    else:
        total = date_max(run.dates.values())
    return EndToEnd(latency=total, values=run_values(orch, run), run=run)


def run_values(orch: OrchNet, run: TimedRun) -> frozenset[Value]:
    maxts = maximal_transitions(orch.net, run.occurring)
    return frozenset(run.values[t] for t in maxts)


# ---------------------------------------------------------------------------
# Futures


def future(orch: OrchNet, kappa: frozenset[str], omega: int) -> OrchNet:
    """The net that remains after the prefix ``kappa`` has occurred.

    Nodes inside kappa (except its maximal places) and nodes in conflict
    with kappa are removed.  Kappa's maximal places become minimal places of
    the result, carrying their computed dates and values as initial data.
    Minimal places of the original net outside kappa keep their own specs.
    """
    net, rel = orch.net, orch.relations
    if not kappa:
        return orch
    for t in sorted(kappa & net.transitions):
        if not net.postset[t] <= kappa:
            raise NetStructureError(
                f"prefix must close over postsets (maximal nodes are places); {t!r} is cut"
            )
    ev = eval_dates(orch, omega, kappa)

    # kappa is causally closed, so a place is maximal in it when no
    # consumer is in it, and the choice maps of kappa's nodes agree
    max_places = frozenset(p for p in kappa & net.places if not (net.postset[p] & kappa))
    interior = kappa - max_places
    chosen = {p: t for t in kappa & net.transitions for p in net.preset[t]}
    blocked = {n for n in net.nodes - kappa if rel.in_conflict_with(n, chosen)}
    keep = (net.nodes - interior - blocked) | max_places

    # a kept transition keeps its whole preset and postset, which are
    # outside kappa's interior and not blocked; kappa's maximal places
    # lose their producers, so they are minimal in the result
    transitions = net.transitions & keep
    sub = net_from_arcs(
        {t: (net.preset[t], net.postset[t]) for t in transitions}, places=net.places & keep
    )

    initial_date: dict[str, LatencySpec] = {}
    initial_value: dict[str, Value] = {}
    for p in sub.minimal_places:
        if p in max_places:
            initial_date[p] = const_latency(ev.dates[p])
            initial_value[p] = ev.values[p]
        else:
            initial_date[p] = orch.initial_date[p]
            initial_value[p] = orch.initial_value[p]

    return OrchNet(
        net=sub,
        latency={t: orch.latency[t] for t in transitions},
        value_fn={t: fn for t, fn in orch.value_fn.items() if t in transitions},
        initial_date=initial_date,
        omega_count=orch.omega_count,
        guard={t: g for t, g in orch.guard.items() if t in transitions},
        initial_value=initial_value,
    )


# ---------------------------------------------------------------------------
# Family order


@dataclass(frozen=True)
class FamilyOrder:
    geq: bool
    witness: tuple[str, ...] = field(default=())
    reason: str = ""


def compare_families(a: OrchNet, b: OrchNet) -> FamilyOrder:
    """Decide whether the families of ``a`` dominate those of ``b``:
    for every omega, every transition latency and every initial date of
    ``a`` is >= the corresponding one of ``b``.

    Tabular specs (const / per-omega / infinite) are compared exactly.
    Expression latencies are only comparable when syntactically equal:
    deciding pointwise inequality of expressions is out of scope.
    """
    if a.net is not b.net and (a.net.nodes != b.net.nodes or a.net.preset != b.net.preset):
        return FamilyOrder(geq=False, reason="nets differ")
    if a.omega_count != b.omega_count:
        return FamilyOrder(geq=False, reason="omega domains differ")

    # members built on one base share spec objects, so each pair of spec
    # objects is decided once; the first failure in sorted order is the
    # least failing transition
    verdicts: dict[tuple[int, int], object] = {}
    failing = []
    for t in a.net.transitions:
        hi, lo = a.latency[t], b.latency[t]
        key = (id(hi), id(lo))
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = _spec_geq(hi, lo, a.omega_count)
        if verdict is not True:
            failing.append(t)
    if failing:
        t = min(failing)
        verdict = verdicts[id(a.latency[t]), id(b.latency[t])]
        return FamilyOrder(
            geq=False,
            witness=(("omega=%d" % verdict) if isinstance(verdict, int) else "spec", t),
            reason=f"latency of {t!r} is not dominating",
        )
    for p in sorted(a.net.minimal_places):
        verdict = _spec_geq(a.initial_date[p], b.initial_date[p], a.omega_count)
        if verdict is not True:
            return FamilyOrder(
                geq=False,
                witness=(("omega=%d" % verdict) if isinstance(verdict, int) else "spec", p),
                reason=f"initial date of {p!r} is not dominating",
            )
    return FamilyOrder(geq=True)


def _spec_geq(hi: LatencySpec, lo: LatencySpec, omega_count: int):
    """True, or the offending omega index, or "spec" for incomparable specs."""
    if hi is lo:  # members built on one base share their unchanged specs
        return True
    if hi.is_tabular() and lo.is_tabular():
        for omega in range(omega_count):
            if hi.value_at(omega) < lo.value_at(omega):
                return omega
        return True
    if hi == lo:
        return True
    return "spec"


# ---------------------------------------------------------------------------
# Pre-orchnets: finite family sets over grids


@dataclass(frozen=True)
class FamilyAssignment:
    """One member of a grid family: a constant per latency class and per
    minimal place (None means "keep the declared spec")."""

    class_values: tuple[tuple[str, ExtendedDate | None], ...]
    place_values: tuple[tuple[str, ExtendedDate | None], ...]


@dataclass(frozen=True)
class GridIndex:
    """Mixed-radix numbering of the members of a pre-orchnet's grid.

    Coordinates are the sorted class ids, then the sorted minimal places;
    the first coordinate is the most significant digit.  A coordinate's
    digits are its grid values sorted by their string form (``"10"``
    before ``"2"``); a coordinate without a grid has the single digit
    None.  Index order is therefore the canonical member order.
    """

    class_ids: tuple[str, ...]
    place_ids: tuple[str, ...]
    digits: tuple[tuple[ExtendedDate | None, ...], ...]
    strides: tuple[int, ...]
    # per coordinate and digit: the digit holding the next larger value
    raises: tuple[tuple[int | None, ...], ...]
    # per coordinate and digit: the digit holding the next smaller value
    lowers: tuple[tuple[int | None, ...], ...]
    # per coordinate and digit: the digits whose value is not larger, ascending
    dominated: tuple[tuple[tuple[int, ...], ...], ...]
    size: int

    @classmethod
    def of(cls, pre: "PreOrchNet") -> "GridIndex":
        class_ids = tuple(sorted(pre.classes))
        place_ids = tuple(sorted(pre.net.minimal_places))
        grids = [pre.class_grid.get(c) for c in class_ids] + [
            pre.place_grid.get(p) for p in place_ids
        ]
        digits, raises, lowers, dominated = [], [], [], []
        for grid in grids:
            if grid is None:
                ds, ladder = (None,), [0]
            else:
                ds = tuple(sorted(grid, key=str))
                ladder = sorted(range(len(ds)), key=ds.__getitem__)  # digits by value
            up: list[int | None] = [None] * len(ds)
            down: list[int | None] = [None] * len(ds)
            for d, nxt in zip(ladder, ladder[1:]):
                up[d] = nxt
                down[nxt] = d
            rank = {d: r for r, d in enumerate(ladder)}
            digits.append(ds)
            raises.append(tuple(up))
            lowers.append(tuple(down))
            dominated.append(tuple(tuple(sorted(ladder[: rank[d] + 1])) for d in range(len(ds))))
        strides: list[int] = []
        size = 1
        for ds in reversed(digits):
            strides.insert(0, size)
            size *= len(ds)
        return cls(
            class_ids=class_ids,
            place_ids=place_ids,
            digits=tuple(digits),
            strides=tuple(strides),
            raises=tuple(raises),
            lowers=tuple(lowers),
            dominated=tuple(dominated),
            size=size,
        )

    def member(self, idx: int) -> FamilyAssignment:
        values = [
            ds[idx // stride % len(ds)] for ds, stride in zip(self.digits, self.strides)
        ]
        n = len(self.class_ids)
        return FamilyAssignment(
            class_values=tuple(zip(self.class_ids, values[:n])),
            place_values=tuple(zip(self.place_ids, values[n:])),
        )


@dataclass(frozen=True)
class PreOrchNet:
    """An OrchNet schema whose latencies/initial dates range over finite
    per-class candidate grids instead of being fixed."""

    net: Net
    value_fn: dict[str, ValueFnSpec]  # default: the atom of the transition's id
    classes: dict[str, frozenset[str]]  # class id -> transitions
    class_spec: dict[str, LatencySpec]  # declared latency per class
    class_grid: dict[str, tuple[ExtendedDate, ...]]  # optional per class
    initial_date: dict[str, LatencySpec]
    place_grid: dict[str, tuple[ExtendedDate, ...]]
    omega_count: int = 1
    guard: dict[str, GuardSpec] = field(default_factory=dict)
    initial_value: dict[str, Value] = field(default_factory=dict)
    upward_closed: bool = False

    def __post_init__(self) -> None:
        covered = set()
        for cls, members in self.classes.items():
            if cls not in self.class_spec:
                raise NetStructureError(f"class {cls!r} has no declared latency spec")
            if not covered.isdisjoint(members):
                raise NetStructureError(f"class {cls!r} overlaps another class")
            covered.update(members)
        if not covered.issuperset(self.net.transitions):
            missing = sorted(self.net.transitions - covered)
            raise NetStructureError(f"transitions not covered by any latency class: {missing}")
        for cls in self.class_grid:
            if cls not in self.classes:
                raise NetStructureError(f"grid declared for unknown class {cls!r}")
        for p in self.place_grid:
            if p not in self.net.minimal_places:
                raise NetStructureError(f"grid declared for non-minimal place {p!r}")
        for kind, grids in (("class", self.class_grid), ("place", self.place_grid)):
            for key, values in sorted(grids.items()):
                if not values:
                    raise NetStructureError(f"grid for {kind} {key!r} is empty")
                if len(set(values)) != len(values):
                    raise NetStructureError(f"grid for {kind} {key!r} has duplicate values")

    @cached_property
    def grid_index(self) -> GridIndex:
        return GridIndex.of(self)

    @cached_property
    def kernel(self) -> "RaceKernel":
        """The race of every grid member, compiled once (see RaceKernel)."""
        return RaceKernel(self)

    def instantiate(self, assignment: FamilyAssignment) -> OrchNet:
        latency: dict[str, LatencySpec] = {}
        chosen = dict(assignment.class_values)
        for cls, members in self.classes.items():
            v = chosen.get(cls)
            spec = self.class_spec[cls] if v is None else const_latency(v)
            for t in members:
                latency[t] = spec
        initial_date = dict(self.initial_date)
        for p, v in assignment.place_values:
            if v is not None:
                initial_date[p] = const_latency(v)
        return self.assemble(latency, initial_date)

    def assemble(
        self, latency: dict[str, LatencySpec], initial_date: dict[str, LatencySpec]
    ) -> OrchNet:
        """The member with these per-transition latencies and per-minimal-
        place initial dates; values, guards and initial values are shared."""
        return OrchNet(
            net=self.net,
            latency=latency,
            value_fn=self.value_fn,
            initial_date=initial_date,
            omega_count=self.omega_count,
            guard=self.guard,
            initial_value=self.initial_value,
        )

    def baseline(self) -> OrchNet:
        """The member using every declared spec unchanged."""
        return self.instantiate(FamilyAssignment(class_values=(), place_values=()))

    def member_count(self) -> int:
        return self.grid_index.size


def replace_class_latency(pre: PreOrchNet, cls: str, spec: LatencySpec) -> PreOrchNet:
    """A copy of the pre-orchnet with one class's declared latency replaced."""
    new_spec = dict(pre.class_spec)
    new_spec[cls] = spec
    return replace(pre, class_spec=new_spec)


# ---------------------------------------------------------------------------
# The race loop, which every race runs on, and the race kernel that feeds it
# every member of a grid family


class _Infinity:
    """The infinite date of the race loop: above every int and Fraction,
    equal only to itself, and absorbing in addition."""

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return other is not self


INFINITY = _Infinity()


def _number(d: ExtendedDate):
    """A date as the race loop compares it: its ``finite`` (an int where it
    is integral, a Fraction otherwise), ``INFINITY`` when infinite."""
    q = d.finite
    return INFINITY if q is None else q


def _date(x) -> ExtendedDate:
    """The date that the race-loop number ``x`` stands for (the inverse of
    ``_number``)."""
    return DATE_INF if x is INFINITY else ExtendedDate(x)


class _RaceNet:
    """What every race on one net reads (``_race_net``), each transition
    compiled when a race first enables it, for a single run as for a grid
    family's kernel.

    Transitions are numbered in sorted-id order, so a lower number wins a
    lex tie.  A *date source* is a transition's number, or ``n + m`` for
    the m-th minimal place in sorted-id order.  ``compile(i)`` fills in
    transition i's ``sources`` (those of its preset, in sorted place
    order), ``feeds`` (its postset's consumers, each with the number of
    places it gets) and ``rivals`` (the other consumers of its preset).
    """

    def __init__(self, net: Net) -> None:
        self.net = net
        self.names = names = tuple(sorted(net.transitions))
        n = len(names)
        self.number = dict(zip(names, range(n)))
        self.places = places = tuple(sorted(net.minimal_places))
        self.place_source = dict(zip(places, range(n, n + len(places))))
        # per transition: its preset places that are not marked at the start
        self.missing = tuple(len(net.preset[t] - net.minimal_places) for t in names)
        self.starts = tuple(i for i, k in enumerate(self.missing) if not k)
        self.sources: list[tuple[int, ...] | None] = [None] * n
        self.feeds: list[tuple[tuple[int, int], ...] | None] = [None] * n
        self.rivals: list[tuple[int, ...] | None] = [None] * n

    def compile(self, i: int) -> None:
        pre, post, number = self.net.preset, self.net.postset, self.number
        t = self.names[i]
        if len(pre[t]) == 1:
            # most transitions: one place, so no set and no merge
            (p,) = pre[t]
            self.sources[i] = (number[next(iter(pre[p]))] if pre[p] else self.place_source[p],)
            self.rivals[i] = tuple(sorted([number[c] for c in post[p] if c != t]))
        else:
            self.sources[i] = tuple(
                number[next(iter(pre[p]))] if pre[p] else self.place_source[p]
                for p in sorted(pre[t])
            )
            self.rivals[i] = tuple(sorted({number[c] for p in pre[t] for c in post[p]} - {i}))
        if len(post[t]) == 1:
            (p,) = post[t]
            self.feeds[i] = tuple(sorted([(number[c], 1) for c in post[p]]))
        else:
            fed: dict[int, int] = {}
            for p in post[t]:
                for c in post[p]:
                    fed[number[c]] = fed.get(number[c], 0) + 1
            self.feeds[i] = tuple(sorted(fed.items()))


_race_net = lru_cache(maxsize=4)(_RaceNet)


def _race(
    rn: _RaceNet, latency: list, dates: list, evaluate, branch: bool, cap: int, ties: list | None
) -> list[tuple[list[int], bool, list, list | None]]:
    """The race policy on one member: the (fired, stalled, dates, ties) of
    each distinct fired set, in the order of ``resolutions``.

    ``dates`` holds the date of every date source.  ``latency[c]`` is the
    latency of transition c, or None until the race first enables c and
    ``evaluate(c)`` gives it; c is compiled in ``rn`` once its latency is
    known.  Enabled transitions wait on a heap keyed by (date, number): the
    event list of a discrete-event simulation.  A new date is its preset's
    date plus a latency, so firing dates never decrease.  The rivals of a
    fired transition are marked dead and dropped when they reach the top,
    and a run stops when the top is ``INFINITY``.

    Without ``branch``, the least number among the tied fires, and the one
    run is returned as it ends.  With it, each tied transition fires in
    turn, depth first, each step charging its tied count to ``cap``; a run
    is copied only where it branches, and the first run found stands for
    its fired set.  The tied numbers of
    every step with more than one are appended to ``ties``, unless it is
    None.

    Without ``branch`` or ``ties`` the top of the heap fires.  Otherwise a
    top whose children in the heap hold later dates is untied and, under
    lex, fires at once.  A tied group leaves the heap whole and waits
    beside it, sorted: the bucket of one date in a calendar queue (R.
    Brown, CACM 1988).  Each step fires its least member, drops the
    members that firing killed and merges in what it enabled at the same
    date, so a W-way tie costs W pops, not W per step.
    """
    sources, feeds, rivals = rn.sources, rn.feeds, rn.rivals
    heap = []
    for c in rn.starts:
        lat = latency[c]
        if lat is None:
            lat = latency[c] = evaluate(c)
        src = sources[c]
        ready = dates[src[0]] if len(src) == 1 else max(map(dates.__getitem__, src), default=0)
        heap.append((lat + ready, c))
    heapify(heap)
    collect = branch or ties is not None
    runs: dict[frozenset[int], tuple] = {}
    branches = 0
    stack = [((ties, [], list(rn.missing), bytearray(len(latency)), dates, heap, []), None)]
    while stack:
        state, entry = stack.pop()
        ties, fired, missing, dead, dates, heap, group = state
        date_at = dates.__getitem__
        while True:
            if entry is None:
                if group:
                    # the rest of the group tied at the last firing's date,
                    # less what that firing killed (a branch fires any
                    # member), plus what it enabled at that date
                    t = fired[-1]
                    best = dates[t]
                    if branch or rivals[t]:
                        group[:] = [u for u in group if not dead[u]]
                    kept = len(group)
                    while heap and heap[0][0] == best:
                        group.append(heappop(heap)[1])
                    if len(group) > kept:
                        group.sort(reverse=True)  # merges a descending and an ascending run
                if not group:
                    while heap and dead[heap[0][1]]:
                        heappop(heap)
                    if not heap or heap[0][0] is INFINITY:
                        break
                    if not collect:
                        entry = heappop(heap)
                    else:
                        best = heap[0][0]
                        # the top is untied when its children in the heap are later
                        size = len(heap)
                        if not branch and (size < 2 or heap[1][0] != best) and (
                            size < 3 or heap[2][0] != best
                        ):
                            entry = heappop(heap)
                        else:
                            while heap and heap[0][0] == best:
                                u = heappop(heap)[1]
                                if not dead[u]:
                                    group.append(u)
                            group.reverse()
                if entry is None:
                    # the group is kept in descending number: the least is last
                    if ties is not None and len(group) > 1:
                        ties.append(group[::-1])
                    if branch:
                        branches += len(group)
                        if branches > cap:
                            raise CapExceededError(f"tie enumeration exceeded cap {cap}")
                        # the other choices resume from copies, in depth-first order
                        copies = ((tuple(map(copy, state)), (best, u)) for u in group[:-1])
                        stack.extend(copies)
                    entry = (best, group.pop())
            d, t = entry
            dead[t] = 1
            fired.append(t)
            dates[t] = d
            for r in rivals[t]:
                dead[r] = 1
            for c, k in feeds[t]:
                left = missing[c] = missing[c] - k
                if not left and not dead[c]:
                    lat = latency[c]
                    if lat is None:
                        lat = latency[c] = evaluate(c)
                    src = sources[c]
                    # a lone source is t itself
                    heappush(heap, (lat + (d if len(src) == 1 else max(map(date_at, src))), c))
            entry = None
        # only infinite-date transitions are left enabled here.  An enabled
        # transition is in conflict with nothing fired, and a causally
        # minimal unfired transition in conflict with nothing fired is
        # enabled, so the configuration is maximal iff none is left.
        if not branch:
            return [(fired, bool(heap), dates, ties)]
        runs.setdefault(frozenset(fired), (fired, bool(heap), dates, ties))
    if len(runs) == 1:
        return list(runs.values())
    names, net = rn.names, rn.net

    def occurring(run):
        return tuple(sorted(configuration_of(net, frozenset(names[t] for t in run[0]))))

    return sorted(runs.values(), key=occurring)


class KernelRun(NamedTuple):
    """One tie resolution of one member, raced on a RaceKernel."""

    latency: int | Fraction | _Infinity  # end-to-end latency, as ``_number`` gives it
    fired: tuple[int, ...]  # transition numbers, in firing order
    stalled: bool
    values: frozenset[Value] | None  # of the maximal fired transitions, when asked for


@dataclass(frozen=True)
class _OmegaTable:
    """What every member's race at one omega shares; its dates are as
    ``_number`` gives them.  It starts with no transition evaluated: the
    race that first enables a transition fills in its entries."""

    latency: list[int | Fraction | _Infinity | None]  # per transition; None until evaluated
    # (transition, its coordinate's stride, radix and grid values), in evaluation order
    latency_slots: list[tuple[int, int, int, tuple]]
    dates: list[int | Fraction | _Infinity]  # per date source: transitions 0, then initial dates
    date_slots: tuple[tuple[int, int, int, tuple], ...]  # (date source, stride, radix, values)
    start: int | Fraction | _Infinity | None  # the latest initial date; None if a place is gridded
    values: list[Value | None]  # per date source


class RaceKernel:
    """The race policy on every member of one PreOrchNet's grid.

    Members differ only in their latency constants.  Each place of an
    occurrence net has one producer, so a transition's value, guard outcome
    and ``expr`` latency do not depend on the member either.  They are
    evaluated once per omega, through ``OrchNet.delay_of`` on ``orch``, the
    member whose gridded latencies and initial dates are 0, by the first
    race that enables the transition, as a single run evaluates it; later
    members copy them and fill in their grid digits.  An EvaluationError is
    raised by every race that enables that transition.
    """

    def __init__(self, pre: PreOrchNet) -> None:
        zero = const_latency(DATE_ZERO)
        latency = {c: zero if c in pre.class_grid else pre.class_spec[c] for c in pre.classes}
        # checks the family as instantiating a member would
        self.orch = pre.assemble(
            {t: latency[c] for c, ts in pre.classes.items() for t in ts},
            {p: zero if p in pre.place_grid else spec for p, spec in pre.initial_date.items()},
        )
        self.grid = grid = pre.grid_index
        self.race_net = rn = _race_net(pre.net)
        self.transitions = rn.names
        post, number = pre.net.postset, rn.number
        self.after = tuple(frozenset(number[c] for p in post[t] for c in post[p]) for t in rn.names)
        coordinate = {c: k for k, c in enumerate(grid.class_ids)}
        self.class_coordinate = {t: coordinate[c] for c, ts in pre.classes.items() for t in ts}
        # per transition number: its class coordinate, as a bit
        self.class_bit = tuple(1 << self.class_coordinate[t] for t in rn.names)
        # per coordinate: its stride, radix and grid values, or None if not gridded
        self.radix = tuple(
            None if ds[0] is None else (stride, len(ds), tuple(map(_number, ds)))
            for ds, stride in zip(grid.digits, grid.strides)
        )
        self._tables: dict[int, _OmegaTable] = {}

    def _compile(self, omega: int) -> _OmegaTable:
        """The table of ``omega``, made and kept on its first race; an
        omega out of range raises here."""
        orch, rn = self.orch, self.race_net
        orch.check_omega(omega)
        n, ncls = len(rn.names), len(self.grid.class_ids)
        # raised here, so when a race at this omega starts
        initial = [_number(orch.initial_date[p].value_at(omega)) for p in rn.places]
        date_slots = tuple(
            (n + m, *slot) for m, slot in enumerate(self.radix[ncls:]) if slot is not None
        )
        tab = self._tables[omega] = _OmegaTable(
            latency=[None] * n,
            latency_slots=[],
            dates=[0] * n + initial,
            date_slots=date_slots,
            start=None if date_slots else max(initial, default=0),
            values=[None] * n + [orch.initial_value[p] for p in rn.places],
        )
        return tab

    def race(
        self, idx: int, omega: int, tie: str = "lex", cap: int = 10_000, values: bool = False
    ) -> tuple[KernelRun, ...]:
        """The outcomes of grid member ``idx`` at ``omega``, as
        ``resolutions(pre.instantiate(grid.member(idx)), omega, tie, cap)``
        gives them: one per distinct fired set, in the same order, with the
        same cap on tie branches.  Ties are not recorded.  ``omega`` is
        checked once, when its table is compiled."""
        if tie not in ("lex", "all"):
            raise NetStructureError(f"unknown tie_break {tie!r}")
        tab = self._tables.get(omega) or self._compile(omega)
        latency = tab.latency.copy()
        for i, stride, radix, ds in tab.latency_slots:
            latency[i] = ds[idx // stride % radix]
        dates = tab.dates.copy()
        start = tab.start
        if start is None:
            for s, stride, radix, ds in tab.date_slots:
                dates[s] = ds[idx // stride % radix]
            start = max(dates[len(latency) :])

        def evaluate(c: int):
            # c's first enabling at this omega: what every later member copies
            rn = self.race_net
            if rn.sources[c] is None:
                rn.compile(c)
            t = rn.names[c]
            inputs = tuple(tab.values[s] for s in rn.sources[c])
            delay, tab.values[c] = self.orch.delay_of(t, omega, inputs)
            lat = tab.latency[c] = _number(delay)
            slot = self.radix[self.class_coordinate[t]]
            if slot is None or lat is INFINITY:  # not gridded, or stalled by its guard
                return lat
            tab.latency_slots.append((c, *slot))
            stride, radix, ds = slot
            return ds[idx // stride % radix]

        runs = []
        for fired, stalled, dates, _ in _race(
            self.race_net, latency, dates, evaluate, tie == "all", cap, None
        ):
            total = INFINITY if stalled else max(dates[fired[-1]] if fired else 0, start)
            maximal = None
            if values:
                done = set(fired)
                maximal = frozenset(tab.values[t] for t in fired if done.isdisjoint(self.after[t]))
            runs.append(KernelRun(total, tuple(fired), stalled, maximal))
        return tuple(runs)
