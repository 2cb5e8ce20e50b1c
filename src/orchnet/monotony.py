"""Monotony analysis: does raising latencies ever shrink end-to-end latency?

Three complementary deciders plus witness machinery:

* ``structural_check``: the per-cluster postset-equality condition on the
  carrier net.  Satisfied everywhere => the induced families are monotonic.
* ``check_global_condition``: for one member and one omega, compares the
  latency of every maximal configuration against the occurring one; the
  occurring configuration must be slowest-case-optimal for monotony.
* ``brute_force_monotony``: the definitional oracle over finite grids,
  enumerating dominating member pairs.

``synthesize_counterexample`` turns a violated cluster condition into a
concrete verified witness pair by the two-stage cone construction: make the
violating branch win the race, starve its continuation (infinite latency),
then raise everything outside a finite alternative configuration so that the
bigger family finishes earlier.  Every produced pair is re-verified by
simulation; exhaustion raises instead of fabricating a witness.

``conditional_monotony_check`` weakens monotony to pairs delivering equal
value sets; distinct value sets across maximal configurations certify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product

from .attributes import DATE_INF, ExtendedDate, Value, date_max, value_sort_key
from .errors import CapExceededError, NetStructureError, SynthesisError
from .nets import (
    Net,
    WorkflowNet,
    clusters,
    iter_maximal_configurations,
    maximal_configurations,
    maximal_transitions,
    require_occurrence_net,
)
from .specs import LatencySpec
from .timed import (
    EndToEnd,
    FamilyAssignment,
    GridIndex,
    OrchNet,
    PreOrchNet,
    _date,
    compare_families,
    eval_dates,
    latency_of_prefix,
    resolutions,
)
from .unfolding import CarrierSpecs, UnfoldingResult, induced_preorchnet, unfold


# ---------------------------------------------------------------------------
# Structural cluster condition


@dataclass(frozen=True)
class ClusterViolation:
    cluster: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]  # direct racing pairs with differing postsets


@dataclass(frozen=True)
class StructuralReport:
    satisfied: bool
    violations: tuple[ClusterViolation, ...]
    clusters_checked: int


@lru_cache(maxsize=512)
def structural_check(carrier: Net | WorkflowNet) -> StructuralReport:
    """Check that inside every cluster all transitions share one postset.

    The check runs on the carrier net itself, not its unfolding (unique
    producers there would condemn any real conflict).  An occurrence net
    passed directly is its own unfolding, so its clusters are the ones that
    matter.  Clusters without transitions are vacuous and skipped.

    Memoized per carrier, as ``occurrence_check`` is per net:
    ``counterexample`` checks its carrier, then ``synthesize_counterexample``
    checks the same carrier again.
    """
    net = carrier.net if isinstance(carrier, WorkflowNet) else carrier
    violations: list[ClusterViolation] = []
    checked = 0
    for cluster in clusters(net):
        if not cluster.transitions:
            continue
        checked += 1
        ts = sorted(cluster.transitions)
        postsets = {t: net.postset[t] for t in ts}
        if len({postsets[t] for t in ts}) <= 1:
            continue
        pairs = []
        for i, t1 in enumerate(ts):
            for t2 in ts[i + 1 :]:
                if net.preset[t1] & net.preset[t2] and postsets[t1] != postsets[t2]:
                    pairs.append((t1, t2))
        violations.append(
            ClusterViolation(cluster=tuple(sorted(cluster.nodes)), pairs=tuple(pairs))
        )
    return StructuralReport(
        satisfied=not violations,
        violations=tuple(violations),
        clusters_checked=checked,
    )


# ---------------------------------------------------------------------------
# Global condition: occurring configuration is optimal


@dataclass(frozen=True)
class GlobalConditionWitness:
    configuration: frozenset[str]
    latency: ExtendedDate


@dataclass(frozen=True)
class GlobalConditionReport:
    status: str  # "holds" | "violated" | "undecided"
    occurring_latency: ExtendedDate | None
    witnesses: tuple[GlobalConditionWitness, ...]
    configurations_checked: int
    note: str = ""


def check_global_condition(
    orch: OrchNet,
    omega: int,
    tie_break: str = "lex",
    config_cap: int = 100_000,
) -> GlobalConditionReport:
    """Does every maximal configuration have latency >= the occurring one?

    A violation exhibits an alternative maximal configuration strictly
    faster than what the race policy produces; with upward-closed families
    that is exactly the seed of a monotony counterexample.  Under
    tie_break="all" the occurring latency is that of the slowest tie
    resolution.
    """
    occurring_latency = max(r.latency for r in resolutions(orch, omega, tie_break))
    try:
        configs = maximal_configurations(orch.net, cap=config_cap)
    except CapExceededError as exc:
        return GlobalConditionReport(
            status="undecided",
            occurring_latency=occurring_latency,
            witnesses=(),
            configurations_checked=0,
            note=str(exc),
        )
    witnesses = []
    for config in configs:
        lat = latency_of_prefix(orch, omega, config)
        if lat < occurring_latency:
            witnesses.append(GlobalConditionWitness(configuration=config, latency=lat))
    return GlobalConditionReport(
        status="violated" if witnesses else "holds",
        occurring_latency=occurring_latency,
        witnesses=tuple(witnesses),
        configurations_checked=len(configs),
    )


# ---------------------------------------------------------------------------
# Brute-force grid oracle


@dataclass(frozen=True)
class GridWitness:
    """The first violating pair of a grid sweep: member ``hi`` dominates
    ``lo`` and finishes earlier at ``omega``.  ``values`` is the value set
    both deliver (conditional monotony only), and the resolutions are the
    two runs' firing orders under the ``all`` tie policy."""

    hi: FamilyAssignment
    lo: FamilyAssignment
    omega: int
    latency_hi: ExtendedDate
    latency_lo: ExtendedDate
    values: tuple[Value, ...] = ()
    resolution_hi: tuple[str, ...] = ()
    resolution_lo: tuple[str, ...] = ()


@dataclass(frozen=True)
class OracleReport:
    outcome: str  # "monotonic" | "non_monotonic" | "undecided"
    grid_relative: bool
    witness: GridWitness | None
    members_checked: int
    pairs_checked: int
    note: str = ""


def brute_force_monotony(
    pre: PreOrchNet,
    tie_break: str = "lex",
    mode: str = "all_pairs",
    eval_cap: int = 1_000_000,
) -> OracleReport:
    """Definitional monotony check over the finite grid family.

    mode="all_pairs" enumerates every dominating member pair (the
    definition, verbatim).  mode="adjacent" checks only single-coordinate
    raises to the next grid value, which is equivalent under the
    deterministic tie policy: any violating pair telescopes through a chain
    of adjacent grid members, so some adjacent step already violates.
    The verdict is relative to the declared grids ("monotonic over the
    grid"), never a proof over all real-valued families.
    """
    if tie_break == "all" and mode != "all_pairs":
        raise NetStructureError("adjacent mode requires the deterministic tie policy")
    sweep = _sweep(
        pre,
        mode,
        tie_break,
        eval_cap,
        f"oracle exceeded evaluation cap {eval_cap}",
    )
    return OracleReport(
        outcome=sweep.outcome("monotonic"),
        grid_relative=True,
        witness=sweep.witness,
        members_checked=pre.member_count(),
        pairs_checked=sweep.pairs_checked,
        note=sweep.note,
    )


@dataclass(frozen=True)
class _SweepResult:
    witness: GridWitness | None  # the first violation
    pairs_checked: int
    note: str  # the cap message when the evaluation budget ran out

    def outcome(self, holds: str) -> str:
        if self.note:
            return "undecided"
        return "non_monotonic" if self.witness is not None else holds


def _sweep(
    pre: PreOrchNet,
    mode: str,
    tie_break: str,
    eval_cap: int,
    cap_message: str,
    values: bool = False,
) -> _SweepResult:
    """Walk dominating member pairs (hi, lo) in canonical order and stop at
    the first violation.

    Members are raced on ``pre.kernel`` and charged to one budget of
    ``eval_cap`` evaluations; what a member's race gave at an omega is kept
    in that omega's table, keyed by member index.  Under lex the table
    holds the member's latency, with its value set in a second table when
    ``values`` is set, so a pair compares two entries: it violates when
    hi's latency is below lo's (and, with ``values``, both deliver one
    value set).  Under ``all`` the table holds the member's runs, one per
    tie resolution, and a pair violates when some hi run and some lo run
    do.  The violating pair alone is instantiated and raced again through
    ``resolutions`` for the ``GridWitness``.  Both races run the same
    loop, so comparing them checks the kernel's grid-digit latencies
    against the member's own specs.

    In all_pairs mode the pairs of one hi form a block: the members hi
    dominates, in index order.  The block's first pair is checked as any
    pair is, which evaluates hi at every omega.  Under lex, if every other
    member of the block is in every omega's table by then, one scan per
    omega settles the rest: none of its pairs violates when hi's latency
    is at least their largest.  Its pairs are then counted with no member
    evaluated, as walking them would have done.  Otherwise, or when the
    scan finds a larger latency, the rest is walked pair by pair, which
    finds the first violation and charges the budget in walk order.

    Under lex a member is not always raced.  Take the member one step lower
    in value in a class coordinate k.  If its run is memoised at this omega
    and fired no transition of class k, it is this member's run too: each
    transition of class k was killed by a rival or never enabled, and a
    later date keeps it so, while every date of the run is a max-plus
    expression of the fired transitions alone.  That run's latency and
    value set are stored for this member, which is charged to the budget as
    a raced one.
    Place coordinates are never reused (a start date bounds every run), nor
    is anything under ``all``, whose tie groups read rivals that never fire.
    """
    grid = pre.grid_index
    lex = tie_break == "lex"
    # per omega: its table, its value sets (under lex, when asked for) and,
    # where a member can be reused, the class coordinates each memoised run
    # fired, one bit each
    tables = [(omega, {}, {}, {}) for omega in range(pre.omega_count)]
    budget = eval_cap
    pairs_checked = 0
    # under lex, per gridded class coordinate: its bit, and per digit the
    # index offset of the member one step lower in value (0 at the bottom)
    lowers = [
        (
            1 << k,
            stride,
            len(down),
            tuple(0 if e is None else (e - d) * stride for d, e in enumerate(down)),
        )
        for k, (down, stride) in enumerate(zip(grid.lowers[: len(grid.class_ids)], grid.strides))
        if len(down) > 1 and lex
    ]

    def race(idx: int, omega: int, memo: dict, vals: dict, fired_classes: dict[int, int]):
        nonlocal budget
        if budget <= 0:
            raise CapExceededError(cap_message)
        budget -= 1
        for bit, stride, radix, down in lowers:
            step = down[idx // stride % radix]
            if step:
                fired = fired_classes.get(idx + step)
                if fired is not None and not fired & bit:
                    fired_classes[idx] = fired
                    if values:
                        vals[idx] = vals[idx + step]
                    memo[idx] = entry = memo[idx + step]
                    return entry
        kernel = pre.kernel
        runs = kernel.race(idx, omega, tie_break, values=values)
        if not lex:
            memo[idx] = runs
            return runs
        (run,) = runs
        if lowers:
            fired = 0
            for bit in map(kernel.class_bit.__getitem__, run.fired):
                fired |= bit
            fired_classes[idx] = fired
        if values:
            vals[idx] = run.values
        memo[idx] = run.latency
        return run.latency

    def replay(idx: int, omega: int, position: int, latency, value_set) -> EndToEnd:
        member = grid.member(idx)
        outcome = resolutions(pre.instantiate(member), omega, tie_break)[position]
        if outcome.latency != _date(latency) or (values and outcome.values != value_set):
            raise AssertionError(
                f"grid latencies disagree with the specs of member {member} at omega {omega}"
            )
        return outcome

    def witness(hi: int, lo: int, omega: int, h, l) -> GridWitness:
        # h and l: (position among the member's runs, latency, value set)
        hi_res = replay(hi, omega, *h)
        lo_res = replay(lo, omega, *l)
        return GridWitness(
            hi=grid.member(hi),
            lo=grid.member(lo),
            omega=omega,
            latency_hi=hi_res.latency,
            latency_lo=lo_res.latency,
            values=tuple(sorted(hi_res.values, key=value_sort_key)) if values else (),
            resolution_hi=() if lex else hi_res.run.step_order,
            resolution_lo=() if lex else lo_res.run.step_order,
        )

    def decided(hi: int, rest: list[int]) -> bool:
        # the first pair of hi's block evaluated hi at every omega
        nonlocal pairs_checked
        try:
            for _, memo, _, _ in tables:
                if memo[hi] < max(map(memo.__getitem__, rest)):
                    return False
        except KeyError:  # a member of the block is not evaluated yet
            return False
        pairs_checked += len(rest)
        return True

    try:
        for hi, lo in _dominating_pairs(grid, mode, decided if lex else None):
            pairs_checked += 1
            for omega, memo, vals, fired_classes in tables:
                l = memo.get(lo)
                if l is None:
                    l = race(lo, omega, memo, vals, fired_classes)
                h = memo.get(hi)
                if h is None:
                    h = race(hi, omega, memo, vals, fired_classes)
                if lex:
                    if h < l and (not values or vals[hi] == vals[lo]):
                        found = witness(hi, lo, omega, (0, h, vals.get(hi)), (0, l, vals.get(lo)))
                        return _SweepResult(found, pairs_checked, "")
                    continue
                for i, hr in enumerate(h):
                    for j, lr in enumerate(l):
                        if hr.latency < lr.latency and (not values or hr.values == lr.values):
                            found = witness(
                                hi, lo, omega,
                                (i, hr.latency, hr.values), (j, lr.latency, lr.values),
                            )
                            return _SweepResult(found, pairs_checked, "")
    except CapExceededError as exc:
        return _SweepResult(None, pairs_checked, str(exc))
    return _SweepResult(None, pairs_checked, "")


def _dominating_pairs(grid: GridIndex, mode: str, decided=None):
    """Index pairs (hi, lo) with hi dominating lo, hi != lo, in walk order.

    "adjacent": for each lo in index order, raise one coordinate at a time
    to its next larger value.  "all_pairs": for each hi in index order, its
    block: the members it dominates other than itself, in increasing index
    order, as the product of the per-coordinate dominated digits.  When
    the first pair of a block has been walked, ``decided(hi, rest)`` may
    settle the rest of it: if it returns true, those pairs are not yielded.
    """
    if mode == "adjacent":
        # per coordinate of more than one digit, and per digit: the index
        # offset of its raise, 0 at the top
        offsets = [
            [0 if up is None else (up - d) * stride for d, up in enumerate(ups)]
            for ups, stride in zip(grid.raises, grid.strides)
            if len(ups) > 1
        ]
        for lo, steps in enumerate(product(*offsets)):
            for step in steps:
                if step:
                    yield lo + step, lo
    elif mode == "all_pairs":
        # per coordinate of more than one digit, and per digit: the index
        # offsets of the digits it dominates
        offsets = [
            [tuple(e * stride for e in lows) for lows in per_digit]
            for per_digit, stride in zip(grid.dominated, grid.strides)
            if len(per_digit) > 1
        ]
        for hi, parts in enumerate(product(*offsets)):
            block = list(map(sum, product(*parts)))
            block.remove(hi)
            if not block:
                continue
            yield hi, block[0]
            rest = block[1:]
            if rest and not (decided and decided(hi, rest)):
                for lo in rest:
                    yield hi, lo
    else:
        raise NetStructureError(f"unknown oracle mode {mode!r}")


# ---------------------------------------------------------------------------
# Witness verification


@dataclass(frozen=True)
class Verification:
    accepted: bool
    reason: str
    latency_lo: ExtendedDate | None = None
    latency_hi: ExtendedDate | None = None


def verify_counterexample(
    lo: OrchNet,
    hi: OrchNet,
    omega: int,
    tie_break: str = "lex",
    *,
    lo_resolutions: tuple[EndToEnd, ...] | None = None,
) -> Verification:
    """Accept iff hi's families dominate lo's and hi finishes strictly
    earlier at the given omega.  A drop from infinite to finite latency is a
    valid strict decrease (the orchestration goes from never finishing to
    finishing).

    Under tie_break="all" the violation must hold for at least one pair of
    tie resolutions, so the fastest hi run is compared against the slowest
    lo run.

    A caller that has already raced lo passes ``resolutions(lo, omega,
    tie_break)`` as ``lo_resolutions``, and lo is not raced again; without
    it, lo is raced here.
    """
    order = compare_families(hi, lo)
    if not order.geq:
        return Verification(accepted=False, reason=f"hi does not dominate lo: {order.reason}")
    if lo_resolutions is None:
        lo_resolutions = resolutions(lo, omega, tie_break)
    e_lo = max(r.latency for r in lo_resolutions)
    e_hi = min(r.latency for r in resolutions(hi, omega, tie_break))
    if e_hi < e_lo:
        return Verification(
            accepted=True,
            reason="dominating family finishes strictly earlier",
            latency_lo=e_lo,
            latency_hi=e_hi,
        )
    return Verification(
        accepted=False,
        reason=f"no strict decrease: E(hi)={e_hi} vs E(lo)={e_lo}",
        latency_lo=e_lo,
        latency_hi=e_hi,
    )


# ---------------------------------------------------------------------------
# Counterexample synthesis


@dataclass(frozen=True)
class SynthesisOutcome:
    lo: OrchNet
    hi: OrchNet
    omega: int
    verification: Verification
    cluster: tuple[str, ...]
    pair: tuple[str, str]  # winning event, sacrificed competitor
    pair_labels: tuple[str, str]
    cone_configuration: frozenset[str]
    residual_place: str
    starved_events: tuple[str, ...]
    alternative: frozenset[str]
    alternative_latency: ExtendedDate
    unfolding: UnfoldingResult


def synthesize_counterexample(
    carrier: Net | WorkflowNet,
    specs: CarrierSpecs,
    omega_star: int,
    tie_break: str = "lex",
) -> SynthesisOutcome:
    """Build a verified monotony counterexample from a cluster violation.

    Follows the cone construction: lift a violating racing pair (t1, t2)
    into the unfolding, force their common enabling prefix K to occur, rig
    the cluster race so t1 wins, give every consumer of a residual place
    p in t1's postset infinite latency (the run stalls: E = inf), then raise
    everything outside a finite alternative maximal configuration just above
    its latency so the dominating family finishes there (E finite).

    Candidates (cluster, ordered pair, residual place) are searched
    exhaustively, with descent to earlier racing pairs when the cones
    conflict or steal each other's tokens.  Every candidate is verified by
    simulation before being returned; exhaustion raises SynthesisError.

    A candidate pair shares a preset condition and maps to transitions with
    differing postsets, so both lie in a violating cluster of the carrier:
    only the unfolding clusters of events that map into one are built.
    """
    net = carrier.net if isinstance(carrier, WorkflowNet) else carrier
    report = structural_check(carrier)
    if report.satisfied:
        raise SynthesisError("cluster condition is satisfied; nothing to synthesize")
    if not specs.upward_closed:
        raise SynthesisError(
            "synthesis requires the upward_closed flag: raised members must stay in the family"
        )

    result = unfold(carrier)
    unf = result.unfolding
    phi = result.morphism.node_map
    rel = require_occurrence_net(unf)  # memoized: the unfolder validated unf
    pre = induced_preorchnet(result, specs)

    base = _finite_baseline(pre, omega_star)
    class_of, group = _modification_groups(pre, specs, phi)
    # the member with the baseline at omega_star, built when first needed:
    # it raises when some class cannot be given a date there
    base_member = cache(lambda: _base_member(pre, base, omega_star))

    failures: list[str] = []
    violating = {n for v in report.violations for n in v.cluster}
    parts = clusters(unf, [e for e in unf.transitions if phi[e] in violating])
    cluster_of = {t: c.transitions for c in parts for t in c.transitions}
    for cluster in parts:
        events = sorted(cluster.transitions)
        for t1 in events:
            for t2 in events:
                if t1 == t2:
                    continue
                if not unf.preset[t1] & unf.preset[t2]:
                    continue
                if net.postset[phi[t1]] == net.postset[phi[t2]]:
                    continue
                resolved = _descend(unf, net, rel, phi, t1, t2)
                if resolved is None:
                    failures.append(f"({t1},{t2}): no usable racing pair in the cones")
                    continue
                r1, r2, cone_k = resolved
                outcome = _attempt(
                    pre, unf, net, phi, base, base_member, class_of, group,
                    r1, r2, cluster_of[r1], cone_k, omega_star, tie_break, result, failures,
                )
                if outcome is not None:
                    return outcome
    raise SynthesisError(
        "no candidate produced a verifiable witness: " + "; ".join(failures[:5])
        if failures
        else "no racing pair with differing postsets found in the unfolding"
    )


def _finite_baseline(pre: PreOrchNet, omega_star: int) -> dict[str, ExtendedDate]:
    """A finite latency per event at omega_star, from the declared spec or
    the smallest finite grid value; fails explicitly if neither exists."""
    base: dict[str, ExtendedDate] = {}
    for cls in sorted(pre.classes):
        spec = pre.class_spec[cls]
        value: ExtendedDate | None = None
        if spec.is_tabular():
            v = spec.value_at(omega_star)
            if v.is_finite:
                value = v
        if value is None:
            finite_grid = sorted(v for v in pre.class_grid.get(cls, ()) if v.is_finite)
            if finite_grid:
                value = finite_grid[0]
        if value is None:
            raise SynthesisError(
                f"no finite-latency member: class {cls!r} has no finite value at omega {omega_star}"
            )
        for e in pre.classes[cls]:
            base[e] = value
    for p in sorted(pre.net.minimal_places):
        spec = pre.initial_date[p]
        if not (spec.is_tabular() and spec.value_at(omega_star).is_finite):
            raise SynthesisError(f"initial date of {p!r} is not finite at omega {omega_star}")
    return base


def _modification_groups(pre: PreOrchNet, specs: CarrierSpecs, phi: dict[str, str]):
    """Synthesis modifies latencies per constraint group: events are free
    individually (the induced family choices are per-copy) unless the
    carrier declared an equality class, which ties all copies of all its
    transitions together.

    Returns ``class_of(e)``, the class of event e in ``pre``, and
    ``group(e)``, the events whose latency moves with e's.  Only the
    declared classes' groups are built; any other event is its own group,
    made when asked for."""
    declared = specs.latency_class
    groups = {
        cls: frozenset(e for e in pre.classes[cls] if declared.get(phi[e]) == cls)
        for cls in set(declared.values())
        if cls in pre.classes
    }

    def class_of(e: str) -> str:
        t = phi[e]
        return declared.get(t, t)

    def group(e: str):
        cls = declared.get(phi[e])
        return (e,) if cls is None else groups[cls]

    return class_of, group


def _descend(unf: Net, carrier: Net, rel, phi, t1: str, t2: str):
    """Find a racing pair whose strict-cone union K is a conflict-free
    configuration that does not consume either competitor's preset.

    Returns (t1, t2, K) or None.  Each descent strictly shrinks the combined
    cone, so this terminates.
    """
    current = (t1, t2)
    seen = set()
    while current not in seen:
        seen.add(current)
        a, b = current
        cone_a = rel.cone(a) - {a}
        cone_b = rel.cone(b) - {b}
        k_nodes = cone_a | cone_b
        k_events = k_nodes & unf.transitions

        problem = None
        ev_a = sorted(cone_a & unf.transitions)
        ev_b = sorted(cone_b & unf.transitions)
        for u in ev_a:
            if u in cone_b:
                continue
            for u2 in ev_b:
                if u2 in cone_a:
                    continue
                if unf.preset[u] & unf.preset[u2]:
                    problem = (u, u2)
                    break
            if problem:
                break
        if problem is None:
            # cones compatible; check neither competitor is starved by K
            stealer = None
            for u in sorted(k_events):
                if unf.preset[u] & unf.preset[a]:
                    stealer = (a, u)
                    break
                if unf.preset[u] & unf.preset[b]:
                    stealer = (b, u)
                    break
            if stealer is None:
                return (a, b, k_nodes)
            problem = stealer

        u, u2 = problem
        if carrier.postset[phi[u]] != carrier.postset[phi[u2]]:
            current = (u, u2)
            continue
        return None
    return None


def _attempt(
    pre: PreOrchNet,
    unf: Net,
    carrier: Net,
    phi,
    base: dict[str, ExtendedDate],
    base_member,
    class_of,
    group,
    t1: str,
    t2: str,
    cluster_events: frozenset[str],
    cone_k: frozenset[str],
    omega_star: int,
    tie_break: str,
    unfres: UnfoldingResult,
    failures: list[str],
) -> SynthesisOutcome | None:
    k_events = cone_k & unf.transitions

    # residual places: in t1's postset, with no counterpart after t2, and
    # actually consumed somewhere (otherwise nothing can be starved)
    residuals = [
        p
        for p in sorted(unf.postset[t1])
        if phi[p] not in carrier.postset[phi[t2]] and unf.postset[p]
    ]
    if not residuals:
        failures.append(f"({t1},{t2}): no consumable residual place after the winner")
        return None

    # lo's dates at omega_star where they differ from the baseline
    raised: dict[str, ExtendedDate] = {}

    def lo_date(event: str) -> ExtendedDate:
        return raised.get(event, base[event])

    # dates over the forced prefix K under the finite baseline
    k_dates = eval_dates(base_member(), omega_star, cone_k).dates
    n_star = date_max(k_dates.values())

    def raise_group(event: str, floor: ExtendedDate) -> bool:
        """Raise the whole constraint group to at least ``floor``; refuse if
        that would touch the forced prefix or the winner."""
        members = group(event)
        if t1 in members or not k_events.isdisjoint(members):
            return False
        for member in members:
            if lo_date(member) < floor:
                raised[member] = floor
        return True

    # make K occur: every rival of a K event loses its race
    bump = n_star + ExtendedDate(1)
    for t in sorted(k_events):
        for cond in unf.preset[t]:
            for rival in sorted(unf.postset[cond]):
                if rival in k_events or rival in (t1, t2):
                    continue
                if not raise_group(rival, bump):
                    failures.append(f"({t1},{t2}): prefix rival {rival!r} shares a constraint group with the prefix")
                    return None

    # rig the cluster race: t1's date is strictly minimal among its rivals
    d1 = date_max(k_dates[p] for p in unf.preset[t1]) + lo_date(t1)
    for u in sorted(cluster_events):
        if u == t1 or u in k_events:
            continue
        if not raise_group(u, d1 + ExtendedDate(1)):
            failures.append(f"({t1},{t2}): cluster rival {u!r} shares a constraint group with the prefix")
            return None

    for residual in residuals:
        starved = tuple(sorted(unf.postset[residual]))
        infinite: set[str] | None = set()
        for consumer in starved:
            members = group(consumer)
            if t1 in members or not k_events.isdisjoint(members):
                infinite = None
                break
            infinite.update(members)
        if infinite is None:
            failures.append(f"({t1},{t2}): consumers of {residual!r} overlap the forced prefix")
            continue

        lat = raised | dict.fromkeys(infinite, DATE_INF)
        lo = _materialize(pre, base_member().latency, lat, class_of, omega_star)
        lo_runs = resolutions(lo, omega_star, tie_break)
        if not any(not r.latency.is_finite and t1 in r.run.fired for r in lo_runs):
            failures.append(
                f"({t1},{t2},{residual}): forced run did not stall behind the winner"
            )
            continue

        # the first finite maximal configuration under lo: one that holds an
        # event of infinite latency is infinite, so the search skips those,
        # but a false guard can still make one infinite
        alternative = None
        alt_latency = None
        for config in iter_maximal_configurations(unf, forbidden=frozenset(infinite)):
            lat_cfg = latency_of_prefix(lo, omega_star, config)
            if lat_cfg.is_finite:
                alternative = config
                alt_latency = lat_cfg
                break
        if alternative is None:
            failures.append(f"({t1},{t2},{residual}): every maximal configuration is infinite")
            continue

        floor = alt_latency + ExtendedDate(1)
        hi_raised: dict[str, ExtendedDate] = {}
        for t in unf.transitions - alternative:
            for member in group(t):
                if member not in hi_raised and lat.get(member, base[member]) < floor:
                    hi_raised[member] = floor
        hi = _materialize(pre, lo.latency, hi_raised, class_of, omega_star)

        verification = verify_counterexample(lo, hi, omega_star, tie_break, lo_resolutions=lo_runs)
        if not verification.accepted:
            failures.append(f"({t1},{t2},{residual}): verification rejected ({verification.reason})")
            continue

        return SynthesisOutcome(
            lo=lo,
            hi=hi,
            omega=omega_star,
            verification=verification,
            cluster=tuple(sorted(cluster_events)),
            pair=(t1, t2),
            pair_labels=(phi[t1], phi[t2]),
            cone_configuration=cone_k,
            residual_place=residual,
            starved_events=starved,
            alternative=alternative,
            alternative_latency=alt_latency,
            unfolding=unfres,
        )
    return None


def _base_member(pre: PreOrchNet, base: dict[str, ExtendedDate], omega_star: int) -> OrchNet:
    """The OrchNet whose latency at omega_star is the baseline ``base`` and
    whose other omega columns keep the declared class specs.  A class's
    events share one spec, made in sorted class order."""
    latency: dict[str, LatencySpec] = {}
    for cls in sorted(pre.classes):
        members = pre.classes[cls]
        spec = _spec_at(pre, cls, base[next(iter(members))], omega_star)
        latency.update(dict.fromkeys(members, spec))
    return pre.assemble(latency, pre.initial_date)


def _materialize(
    pre: PreOrchNet,
    latency: dict[str, LatencySpec],
    lat: dict[str, ExtendedDate],
    class_of,
    omega_star: int,
) -> OrchNet:
    """The OrchNet with the latency specs of ``latency``, except that each
    event of ``lat`` takes its date there at omega_star and keeps its
    class's declared spec at every other omega.  The events of one class
    given one date share one spec."""
    latency = dict(latency)
    made: dict[tuple[str, ExtendedDate], LatencySpec] = {}
    for e, target in lat.items():
        key = (class_of(e), target)
        spec = made.get(key)
        if spec is None:
            spec = made[key] = _spec_at(pre, *key, omega_star)
        latency[e] = spec
    return pre.assemble(latency, pre.initial_date)


def _spec_at(pre: PreOrchNet, cls: str, target: ExtendedDate, omega_star: int) -> LatencySpec:
    """Class ``cls``'s declared spec when it gives ``target`` at omega_star,
    else a per-omega table of ``target`` there and the spec elsewhere."""
    spec = pre.class_spec[cls]
    if spec.is_tabular() and spec.value_at(omega_star) == target:
        return spec
    table = []
    for omega in range(pre.omega_count):
        if omega == omega_star:
            table.append(target)
        elif spec.is_tabular():
            table.append(spec.value_at(omega))
        else:
            raise SynthesisError(f"class {cls!r} has a non-tabular latency spec")
    return LatencySpec(kind="per_omega", table=tuple(table))


# ---------------------------------------------------------------------------
# Conditional monotony


@dataclass(frozen=True)
class DistinctValuesWitness:
    omega: int
    config_a: frozenset[str]
    config_b: frozenset[str]
    values: tuple[Value, ...]


@dataclass(frozen=True)
class DistinctValuesReport:
    holds: bool
    witness: DistinctValuesWitness | None
    configurations: int


def check_distinct_values(orch: OrchNet, config_cap: int = 100_000) -> DistinctValuesReport:
    """Do distinct maximal configurations always deliver distinct value sets?

    Value sets are latency-independent (values flow through value functions
    only), so this property holds for every member of a grid family or none.
    """
    configs = maximal_configurations(orch.net, cap=config_cap)
    for omega in range(orch.omega_count):
        seen: dict[frozenset[Value], frozenset[str]] = {}
        for config in configs:
            delivered = eval_dates(orch, omega, config).values
            values = frozenset(delivered[t] for t in maximal_transitions(orch.net, config))
            if values in seen:
                ordered = tuple(sorted(values, key=value_sort_key))
                return DistinctValuesReport(
                    holds=False,
                    witness=DistinctValuesWitness(
                        omega=omega,
                        config_a=seen[values],
                        config_b=config,
                        values=ordered,
                    ),
                    configurations=len(configs),
                )
            seen[values] = config
    return DistinctValuesReport(holds=True, witness=None, configurations=len(configs))


@dataclass(frozen=True)
class ConditionalReport:
    outcome: str  # "conditionally_monotonic" | "non_monotonic" | "undecided"
    path: str  # "distinct_values" | "brute_force"
    grid_relative: bool
    witness: GridWitness | None
    note: str = ""


def conditional_monotony_check(
    pre: PreOrchNet,
    tie_break: str = "lex",
    force_brute: bool = False,
    eval_cap: int = 1_000_000,
) -> ConditionalReport:
    """Monotony restricted to member pairs delivering equal value sets.

    Fast path: if distinct maximal configurations always deliver distinct
    value sets, equal deliveries force equal configurations, and within one
    configuration latency is a monotone max-plus expression, so conditional
    monotony holds outright (not merely over the grid).  Otherwise the
    definition is brute-forced over the grid.
    """
    baseline = pre.baseline()
    try:
        distinct = check_distinct_values(baseline)
    except CapExceededError as exc:
        return ConditionalReport(
            outcome="undecided", path="distinct_values", grid_relative=False,
            witness=None, note=str(exc),
        )
    if distinct.holds and not force_brute:
        return ConditionalReport(
            outcome="conditionally_monotonic",
            path="distinct_values",
            grid_relative=False,
            witness=None,
        )

    sweep = _sweep(
        pre,
        "all_pairs",
        tie_break,
        eval_cap,
        f"conditional check exceeded evaluation cap {eval_cap}",
        values=True,
    )
    return ConditionalReport(
        outcome=sweep.outcome("conditionally_monotonic"),
        path="brute_force",
        grid_relative=True,
        witness=sweep.witness,
        note=sweep.note,
    )
