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

from collections import Counter
from copy import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import lcm
from typing import NamedTuple

from .attributes import DATE_INF, DATE_ZERO, ExtendedDate, Value, atom, date_max
from .errors import CapExceededError, EvaluationError, NetStructureError
from .nets import (
    Net,
    NodeRelations,
    configuration_of,
    is_causally_closed,
    is_conflict_free,
    maximal_transitions,
    require_occurrence_net,
)
from .specs import GuardSpec, LatencySpec, ValueFnSpec, const_latency


@dataclass(frozen=True)
class OrchNet:
    """An occurrence net with value, latency, guard, and initial-date specs."""

    net: Net
    latency: dict[str, LatencySpec]
    value_fn: dict[str, ValueFnSpec]
    initial_date: dict[str, LatencySpec]
    omega_count: int = 1
    guard: dict[str, GuardSpec] = field(default_factory=dict)
    initial_value: dict[str, Value] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rel = require_occurrence_net(self.net)
        object.__setattr__(self, "_relations", rel)
        missing = sorted(self.net.transitions - set(self.latency))
        if missing:
            raise NetStructureError(f"transitions without latency specs: {missing}")
        missing = sorted(self.net.transitions - set(self.value_fn))
        if missing:
            raise NetStructureError(f"transitions without value functions: {missing}")
        missing = sorted(self.net.minimal_places - set(self.initial_date))
        if missing:
            raise NetStructureError(f"minimal places without initial dates: {missing}")
        if self.omega_count < 1:
            raise NetStructureError("omega_count must be at least 1")
        if not self.net.minimal_places <= self.initial_value.keys():
            # fill the atom(p) defaults into a fresh dict, not the caller's
            defaults = {p: atom(p) for p in self.net.minimal_places}
            object.__setattr__(self, "initial_value", defaults | self.initial_value)

    @property
    def relations(self) -> NodeRelations:
        return self._relations  # type: ignore[attr-defined]

    def check_omega(self, omega: int) -> None:
        if not 0 <= omega < self.omega_count:
            raise EvaluationError(f"omega {omega} outside range(0, {self.omega_count})")

    def inputs_of(self, t: str, values: dict[str, Value]) -> tuple[Value, ...]:
        """Preset token values, ordered by sorted preset place id."""
        return tuple(values[p] for p in sorted(self.net.preset[t]))

    def transition_date(
        self, t: str, omega: int, dates: dict[str, ExtendedDate], values: dict[str, Value]
    ) -> tuple[ExtendedDate, Value]:
        inputs = self.inputs_of(t, values)
        out_value = self.value_fn[t].evaluate(omega, inputs)
        guard = self.guard.get(t)
        if guard is not None and not guard.evaluate(inputs):
            return DATE_INF, out_value
        delay = self.latency[t].evaluate(omega, inputs)
        base = date_max(dates[p] for p in self.net.preset[t])
        return base + delay, out_value


@dataclass(frozen=True)
class PrefixEvaluation:
    dates: dict[str, ExtendedDate]
    values: dict[str, Value]


def eval_dates(orch: OrchNet, omega: int, prefix: frozenset[str]) -> PrefixEvaluation:
    """Evaluate dates and values over a causally closed, conflict-free prefix.

    Pure structural evaluation: minimal places take their initial dates,
    other places copy their producer, transitions take max of preset dates
    plus latency (infinite on a false guard).
    """
    orch.check_omega(omega)
    net, rel = orch.net, orch.relations
    if not prefix <= net.nodes:
        raise NetStructureError(f"prefix contains unknown nodes: {sorted(prefix - net.nodes)}")
    ordered = sorted(prefix, key=rel.position.__getitem__)
    if not is_causally_closed(net, rel, prefix):
        # a node is cut off when a preset node is outside or cut off itself
        cut: set[str] = set()
        for n in ordered:
            if any(m not in prefix or m in cut for m in net.preset[n]):
                cut.add(n)
        raise NetStructureError(f"prefix is not causally closed at {sorted(cut)}")
    if not is_conflict_free(rel, prefix):
        raise NetStructureError("prefix is not conflict-free")

    dates: dict[str, ExtendedDate] = {}
    values: dict[str, Value] = {}
    for node in ordered:
        if node in net.places:
            producers = net.preset[node] & prefix
            if producers:
                (producer,) = tuple(producers)
                dates[node] = dates[producer]
                values[node] = values[producer]
            else:
                if node not in orch.initial_date:
                    raise NetStructureError(f"place {node!r} has no initial date in this prefix")
                dates[node] = orch.initial_date[node].value_at(omega)
                values[node] = orch.initial_value[node]
        else:
            if not net.preset[node] <= prefix:
                raise NetStructureError(f"prefix cuts the preset of transition {node!r}")
            d, v = orch.transition_date(node, omega, dates, values)
            dates[node] = d
            values[node] = v
    return PrefixEvaluation(dates=dates, values=values)


def latency_of_prefix(orch: OrchNet, omega: int, prefix: frozenset[str]) -> ExtendedDate:
    """Max date over the prefix; the empty prefix yields 0 by convention."""
    if not prefix:
        return DATE_ZERO
    ev = eval_dates(orch, omega, prefix)
    return date_max(ev.dates.values())


@dataclass(frozen=True)
class Step:
    fired: str
    date: ExtendedDate
    candidates: tuple[tuple[str, ExtendedDate], ...]


@dataclass(frozen=True)
class TimedRun:
    omega: int
    occurring: frozenset[str]
    dates: dict[str, ExtendedDate]
    values: dict[str, Value]
    step_order: tuple[str, ...]
    steps: tuple[Step, ...]
    tie_events: tuple[frozenset[str], ...]
    stalled: bool

    @property
    def fired(self) -> frozenset[str]:
        return frozenset(self.step_order)


def _run_race(
    orch: OrchNet,
    omega: int,
    choose,
) -> list[TimedRun]:
    """Race-policy execution core.

    ``choose(tied)`` maps the sorted ids of the minimal-date enabled
    transitions to the list of transitions to branch on (one element for
    deterministic modes).  Branches are explored depth first in that order;
    a run is copied only where it branches.  Returns one TimedRun per
    distinct occurring configuration, the first found standing for it.
    """
    net = orch.net
    pre, post = net.preset, net.postset
    dates = {p: orch.initial_date[p].value_at(omega) for p in net.minimal_places}
    values = {p: orch.initial_value[p] for p in net.minimal_places}
    marked = set(net.minimal_places)
    # t -> (date, value), evaluated once, when t's whole preset is marked:
    # each place has one producer, so the inputs never change afterwards
    enabled = {
        t: orch.transition_date(t, omega, dates, values)
        for t in sorted(net.transitions)
        if pre[t] <= marked
    }
    stack = [(([], marked, dates, values, enabled, [], []), None)]
    runs: dict[frozenset[str], TimedRun] = {}
    while stack:
        state, t = stack.pop()
        fired, marked, dates, values, enabled, steps, ties = state
        while True:
            if t is None:
                finite = {u: d for u, (d, _) in enabled.items() if d.is_finite}
                if not finite:
                    break
                best = min(finite.values())
                tied = sorted(u for u, d in finite.items() if d == best)
                if len(tied) > 1:
                    ties.append(frozenset(tied))
                t, *others = choose(tied)
                # the other choices resume from copies, in depth-first order
                stack.extend((tuple(map(copy, state)), u) for u in reversed(others))
            candidates = tuple(sorted((u, d) for u, (d, _) in enabled.items()))
            d, v = enabled.pop(t)
            for p in pre[t]:
                for rival in post[p]:
                    enabled.pop(rival, None)
            fired.append(t)
            steps.append(Step(fired=t, date=d, candidates=candidates))
            marked -= pre[t]
            marked |= post[t]
            for n in (t, *post[t]):
                dates[n] = d
                values[n] = v
            for c in sorted({c for p in post[t] for c in post[p]}):
                if pre[c] <= marked:
                    enabled[c] = orch.transition_date(c, omega, dates, values)
            t = None
        key = frozenset(fired)
        if key not in runs:
            occ = configuration_of(net, key)
            # only infinite-date transitions are left enabled here.  An enabled
            # transition is in conflict with nothing fired, and a causally
            # minimal unfired transition in conflict with nothing fired is
            # enabled, so the configuration is maximal iff none is left.
            runs[key] = TimedRun(
                omega=omega,
                occurring=occ,
                dates={n: dates[n] for n in occ},
                values={n: values[n] for n in occ},
                step_order=tuple(fired),
                steps=tuple(steps),
                tie_events=tuple(ties),
                stalled=bool(enabled),
            )
    return sorted(runs.values(), key=lambda r: tuple(sorted(r.occurring)))


def execute(orch: OrchNet, omega: int, tie_break: str = "lex") -> TimedRun:
    """Run the race policy with the deterministic tie policy ("lex": of
    tied transitions, the smallest id fires first)."""
    orch.check_omega(omega)
    if tie_break != "lex":
        raise EvaluationError(f"unknown tie_break {tie_break!r} (use resolutions for enumeration)")
    (run,) = _run_race(orch, omega, lambda tied: [min(tied)])
    return run


def execute_all(orch: OrchNet, omega: int, cap: int = 10_000) -> tuple[TimedRun, ...]:
    """The runs of every distinct tie resolution; see ``resolutions``."""
    return tuple(outcome.run for outcome in resolutions(orch, omega, "all", cap))


@dataclass(frozen=True)
class EndToEnd:
    latency: ExtendedDate
    values: frozenset[Value]
    run: TimedRun


def end_to_end(orch: OrchNet, omega: int, tie_break: str = "lex") -> EndToEnd:
    """End-to-end latency and the value set of the occurring configuration.

    A stalled run (every remaining enabled transition has an infinite date)
    reports infinite latency; the value set always comes from the maximal
    transitions that actually occurred.
    """
    run = execute(orch, omega, tie_break)
    return summarize_run(orch, run)


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
    orch.check_omega(omega)
    branches = 0

    def choose(tied: list[str]) -> list[str]:
        nonlocal branches
        branches += len(tied)
        if branches > cap:
            raise CapExceededError(f"tie enumeration exceeded cap {cap}")
        return sorted(tied)

    return tuple(summarize_run(orch, run) for run in _run_race(orch, omega, choose))


def summarize_run(orch: OrchNet, run: TimedRun) -> EndToEnd:
    if run.stalled:
        total = DATE_INF
    else:
        total = date_max(run.dates.values())
    return EndToEnd(latency=total, values=run_values(orch, run), run=run)


def run_values(orch: OrchNet, run: TimedRun) -> frozenset[Value]:
    maxts = maximal_transitions(orch.net, run.occurring)
    return frozenset(run.values[t] for t in maxts)


def values_of_configuration(orch: OrchNet, omega: int, config: frozenset[str]) -> frozenset[Value]:
    """Value set of an arbitrary configuration (used on maximal configurations)."""
    ev = eval_dates(orch, omega, config)
    maxts = maximal_transitions(orch.net, config)
    return frozenset(ev.values[t] for t in maxts)


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

    places = net.places & keep
    transitions = net.transitions & keep
    flow = frozenset(
        (a, b)
        for (a, b) in net.flow
        if a in keep and b in keep and not (b in max_places)
    )
    sub = Net(
        places=places,
        transitions=transitions,
        flow=flow,
        initial_marking=frozenset(p for p in places if not (net.preset[p] & keep)) | max_places,
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
        value_fn={t: orch.value_fn[t] for t in transitions},
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
    if a.net.nodes != b.net.nodes or a.net.flow != b.net.flow:
        return FamilyOrder(geq=False, reason="nets differ")
    if a.omega_count != b.omega_count:
        return FamilyOrder(geq=False, reason="omega domains differ")

    for t in sorted(a.net.transitions):
        verdict = _spec_geq(a.latency[t], b.latency[t], a.omega_count)
        if verdict is not True:
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

    def dominates(self, other: "FamilyAssignment") -> bool:
        mine = self.class_values + self.place_values
        for (c, v), (c2, v2) in zip(mine, other.class_values + other.place_values):
            assert c == c2
            if v is None and v2 is None:
                continue
            if v is None or v2 is None or v < v2:
                return False
        return True


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
        digits, raises, dominated = [], [], []
        for grid in grids:
            if grid is None:
                ds, ladder = (None,), [0]
            else:
                ds = tuple(sorted(grid, key=str))
                ladder = sorted(range(len(ds)), key=ds.__getitem__)  # digits by value
            up: list[int | None] = [None] * len(ds)
            for d, nxt in zip(ladder, ladder[1:]):
                up[d] = nxt
            rank = {d: r for r, d in enumerate(ladder)}
            digits.append(ds)
            raises.append(tuple(up))
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
    value_fn: dict[str, ValueFnSpec]
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
            if covered & members:
                raise NetStructureError(f"class {cls!r} overlaps another class")
            covered |= members
        missing = sorted(self.net.transitions - covered)
        if missing:
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

    def assignments(self) -> tuple[FamilyAssignment, ...]:
        """Every grid member, in canonical order.

        The order is lexicographic over the coordinates, classes (by id)
        before minimal places (by id), and within one coordinate by the
        string form of the grid value, so ``"10"`` comes before ``"2"``.
        The oracles walk members in this order and report the first
        violating pair they meet as the witness.
        """
        grid = self.grid_index
        return tuple(grid.member(i) for i in range(grid.size))

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
# The race kernel: every member of a grid family, raced on integers


class KernelRun(NamedTuple):
    """One tie resolution of one member, raced on a RaceKernel."""

    latency: int  # scaled end-to-end latency; the table's ``inf`` when infinite
    fired: tuple[int, ...]  # transition numbers, in firing order
    stalled: bool
    values: frozenset[Value] | None  # of the maximal fired transitions, when asked for


@dataclass(frozen=True)
class _OmegaTable:
    """What every member's race at one omega shares.

    A date is an int: the exact date times ``scale``, the least common
    denominator of every date the family can take at this omega.  ``inf``
    is larger than any finite date a run can reach, and a sum that passes
    it is cut back to it.
    """

    scale: int
    inf: int
    latency: list[int]  # per transition, with the gridded entries left to fill
    latency_slots: tuple[tuple[int, int], ...]  # (transition, coordinate)
    dates: list[int]  # per date source: 0 for transitions, initial dates after
    date_slots: tuple[tuple[int, int], ...]  # (date source, coordinate)
    digits: tuple[tuple[int, ...], ...]  # per coordinate: its scaled grid values
    errors: dict[int, EvaluationError]  # raised when a race enables the transition
    initial_error: EvaluationError | None  # raised when a race starts
    values: list[Value | None]  # per transition


class RaceKernel:
    """The race policy on every member of one PreOrchNet's grid.

    Members differ only in their latency constants, so the net is compiled
    once.  Transitions are numbered in sorted-id order, so a lower number
    wins a lex tie.  A *date source* is a transition's number, or ``n + m``
    for the m-th minimal place in sorted-id order; each transition keeps
    the sources of its preset, in sorted place order, its postset
    consumers and its rivals (the other consumers of its preset).

    Each place of an occurrence net has one producer, so a transition's
    value, guard outcome and ``expr`` latency do not depend on the member.
    They are evaluated once per omega, in ``OrchNet.transition_date``'s
    order (value, guard, latency), and an EvaluationError is kept and
    raised when a race first enables that transition, as the race of the
    member's OrchNet would raise it.

    Enabled transitions wait on a heap keyed by (date, number): the event
    list of a discrete-event simulation.  A new date is its preset's date
    plus a latency, so firing dates never decrease.  The rivals of a fired
    transition are marked dead and dropped when they reach the top.
    """

    def __init__(self, pre: PreOrchNet) -> None:
        # checks the family as instantiating a member would
        self.orch = pre.assemble(
            {t: pre.class_spec[c] for c, ts in pre.classes.items() for t in ts}, pre.initial_date
        )
        net = pre.net
        self.pre = pre
        self.grid = grid = pre.grid_index
        self.transitions = names = tuple(sorted(net.transitions))
        n = len(names)
        number = {t: i for i, t in enumerate(names)}
        source = {p: n + m for m, p in enumerate(grid.place_ids)}
        for t in names:
            for p in net.postset[t]:
                source[p] = number[t]
        self.sources = tuple(tuple(source[p] for p in sorted(net.preset[t])) for t in names)
        self.missing = [sum(1 for p in net.preset[t] if net.preset[p]) for t in names]
        self.starts = tuple(i for i in range(n) if not self.missing[i])
        feeds, rivals = [], []
        for t in names:
            fed = Counter(number[c] for p in net.postset[t] for c in net.postset[p])
            feeds.append(tuple(sorted(fed.items())))
            rival = {number[c] for p in net.preset[t] for c in net.postset[p]} - {number[t]}
            rivals.append(tuple(sorted(rival)))
        self.feeds, self.rivals = tuple(feeds), tuple(rivals)
        self.after = tuple(frozenset(c for c, _ in fed) for fed in feeds)
        coordinate = {c: k for k, c in enumerate(grid.class_ids)}
        self.class_coordinate = {t: coordinate[c] for c, ts in pre.classes.items() for t in ts}
        self.radices = tuple(len(ds) for ds in grid.digits)
        self._tables: dict[int, _OmegaTable] = {}

    def _table(self, omega: int) -> _OmegaTable:
        tab = self._tables.get(omega)
        if tab is None:
            tab = self._tables[omega] = self._compile(omega)
        return tab

    def _compile(self, omega: int) -> _OmegaTable:
        pre, grid, names = self.pre, self.grid, self.transitions
        n = len(names)
        gridded = [ds[0] is not None for ds in grid.digits]
        number = {t: i for i, t in enumerate(names)}
        values: list[Value | None] = [None] * n
        values += [self.orch.initial_value[p] for p in grid.place_ids]
        delays: list[ExtendedDate | None] = [DATE_ZERO] * n  # None: read off the grid
        errors: dict[int, EvaluationError] = {}
        for t in self.orch.relations.order:
            i = number.get(t)
            if i is None:
                continue
            inputs = tuple(values[s] for s in self.sources[i])
            if None in inputs:
                continue  # a producer raises first, so t is never enabled
            k = self.class_coordinate[t]
            try:
                value = pre.value_fn[t].evaluate(omega, inputs)
                guard = pre.guard.get(t)
                if guard is not None and not guard.evaluate(inputs):
                    delay = DATE_INF
                elif gridded[k]:
                    delay = None
                else:
                    delay = pre.class_spec[grid.class_ids[k]].evaluate(omega, inputs)
            except EvaluationError as exc:
                errors[i] = exc
                continue
            values[i], delays[i] = value, delay
        initial: list[ExtendedDate] = [DATE_ZERO] * len(grid.place_ids)
        initial_error = None
        place_number = {p: m for m, p in enumerate(grid.place_ids)}
        for p in pre.net.minimal_places:  # the order in which a race reads them
            m = place_number[p]
            if gridded[len(grid.class_ids) + m] or initial_error is not None:
                continue
            try:
                initial[m] = pre.initial_date[p].value_at(omega)
            except EvaluationError as exc:
                initial_error = exc

        exact = [d for ds in grid.digits if ds[0] is not None for d in ds]
        exact += [d for d in delays if d is not None] + initial
        scale = lcm(*(d.finite.denominator for d in exact if d.is_finite))

        def scaled(d: ExtendedDate) -> int | None:  # None stands for infinity
            q = d.finite
            return None if q is None else q.numerator * (scale // q.denominator)

        def top(xs) -> int:
            return max((x for x in xs if x is not None), default=0)

        grid_dates = [[scaled(d) for d in ds] if on else [] for ds, on in zip(grid.digits, gridded)]
        ncls = len(grid.class_ids)
        # a finite date is a start plus at most one latency per transition
        bound = top([scaled(d) for d in initial] + [x for ds in grid_dates[ncls:] for x in ds])
        for t, d in zip(names, delays):
            bound += top(grid_dates[self.class_coordinate[t]] if d is None else [scaled(d)])
        inf = bound + 1

        def fixed(d: ExtendedDate) -> int:
            s = scaled(d)
            return inf if s is None else s

        return _OmegaTable(
            scale=scale,
            inf=inf,
            latency=[0 if d is None else fixed(d) for d in delays],
            latency_slots=tuple(
                (i, self.class_coordinate[t])
                for i, (t, d) in enumerate(zip(names, delays))
                if d is None
            ),
            dates=[0] * n + [fixed(d) for d in initial],
            date_slots=tuple(
                (n + m, ncls + m) for m in range(len(grid.place_ids)) if gridded[ncls + m]
            ),
            digits=tuple(tuple(inf if x is None else x for x in ds) for ds in grid_dates),
            errors=errors,
            initial_error=initial_error,
            values=values[:n],
        )

    def date(self, omega: int, scaled: int) -> ExtendedDate:
        """The exact date of a scaled date at ``omega``."""
        tab = self._table(omega)
        return DATE_INF if scaled >= tab.inf else ExtendedDate(Fraction(scaled, tab.scale))

    def race(
        self, idx: int, omega: int, tie: str = "lex", cap: int = 10_000, values: bool = False
    ) -> tuple[KernelRun, ...]:
        """The outcomes of grid member ``idx`` at ``omega``, as
        ``resolutions(pre.instantiate(grid.member(idx)), omega, tie, cap)``
        gives them: one per distinct fired set, in the same order, with the
        same cap on tie branches."""
        if tie not in ("lex", "all"):
            raise NetStructureError(f"unknown tie_break {tie!r}")
        self.orch.check_omega(omega)
        tab = self._table(omega)
        if tab.initial_error is not None:
            raise tab.initial_error
        strides, radices, digits = self.grid.strides, self.radices, tab.digits
        latency = tab.latency.copy()
        for i, k in tab.latency_slots:
            latency[i] = digits[k][idx // strides[k] % radices[k]]
        dates = tab.dates.copy()
        for s, k in tab.date_slots:
            dates[s] = digits[k][idx // strides[k] % radices[k]]
        start = max(dates[len(latency) :], default=0)
        runs = []
        for fired, stalled, last in self._race(tab, latency, dates, tie == "all", cap):
            total = tab.inf if stalled else max(last, start)
            maximal = None
            if values:
                done = set(fired)
                maximal = frozenset(tab.values[t] for t in fired if done.isdisjoint(self.after[t]))
            runs.append(KernelRun(total, tuple(fired), stalled, maximal))
        return tuple(runs)

    def _race(self, tab: _OmegaTable, latency: list[int], dates: list[int], branch: bool, cap: int):
        """The (fired, stalled, last firing date) of each distinct fired
        set, in the order of ``resolutions``.  Branching follows
        ``_run_race``: depth first, in tie order, with each step charging
        its tied count to ``cap``."""
        inf, errors = tab.inf, tab.errors
        sources, feeds, rivals = self.sources, self.feeds, self.rivals
        heap = []
        for c in self.starts:
            if c in errors:
                raise errors[c]
            d = latency[c] + max(map(dates.__getitem__, sources[c]), default=0)
            heap.append((d if d < inf else inf, c))
        heapify(heap)
        runs: dict[frozenset[int], tuple[list[int], bool, int]] = {}
        branches = 0
        stack = [(([], self.missing.copy(), bytearray(len(latency)), dates, heap), None)]
        while stack:
            state, entry = stack.pop()
            fired, missing, dead, dates, heap = state
            date_at = dates.__getitem__
            while True:
                if entry is None:
                    while heap and dead[heap[0][1]]:
                        heappop(heap)
                    if not heap or heap[0][0] >= inf:
                        break
                    if not branch:
                        entry = heappop(heap)
                    else:
                        best = heap[0][0]
                        tied = []
                        while heap and heap[0][0] == best:
                            u = heappop(heap)[1]
                            if not dead[u]:
                                tied.append(u)
                        branches += len(tied)
                        if branches > cap:
                            raise CapExceededError(f"tie enumeration exceeded cap {cap}")
                        for u in tied:
                            heappush(heap, (best, u))
                        entry = (best, tied[0])
                        for u in reversed(tied[1:]):
                            copies = (fired.copy(), missing.copy(), dead.copy(), dates.copy(), heap.copy())
                            stack.append((copies, (best, u)))
                d, t = entry
                dead[t] = 1
                fired.append(t)
                dates[t] = d
                for r in rivals[t]:
                    dead[r] = 1
                for c, k in feeds[t]:
                    left = missing[c] = missing[c] - k
                    if not left and not dead[c]:
                        if c in errors:
                            raise errors[c]
                        e = latency[c] + max(map(date_at, sources[c]))
                        heappush(heap, (e if e < inf else inf, c))
                entry = None
            runs.setdefault(frozenset(fired), (fired, bool(heap), dates[fired[-1]] if fired else 0))
        if len(runs) == 1:
            return list(runs.values())
        names, net = self.transitions, self.pre.net

        def occurring(run):
            return tuple(sorted(configuration_of(net, frozenset(names[t] for t in run[0]))))

        return sorted(runs.values(), key=occurring)
