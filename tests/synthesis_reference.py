"""Counterexample synthesis as it was when it did work for the whole
unfolding, kept as the differential reference for
``orchnet.monotony.synthesize_counterexample``: ``tests/test_synthesis_reference.py``
compares the two.

The candidate loop runs over every cluster of the unfolding, each
``_attempt`` races ``lo`` for its stall check and again inside
``verify_counterexample``, the alternative is the first finite one among
all maximal configurations in search order, and ``_materialize`` compares
every event's spec against its target for ``lo`` and ``hi`` alike.  The
bodies are the replaced ones, unchanged; the helpers that did not change
are imported from the package.
"""

from __future__ import annotations

from orchnet.attributes import DATE_INF, ExtendedDate, date_max
from orchnet.errors import SynthesisError
from orchnet.monotony import (
    SynthesisOutcome,
    _descend,
    _finite_baseline,
    structural_check,
    verify_counterexample,
)
from orchnet.nets import (
    Net,
    WorkflowNet,
    clusters,
    iter_maximal_configurations,
    require_occurrence_net,
)
from orchnet.specs import LatencySpec
from orchnet.timed import OrchNet, PreOrchNet, eval_dates, latency_of_prefix, resolutions
from orchnet.unfolding import CarrierSpecs, UnfoldingResult, induced_preorchnet, unfold


def ref_synthesize_counterexample(
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
    group_of, group_members = _modification_groups(pre, specs, phi)

    failures: list[str] = []
    parts = clusters(unf)
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
                    pre, unf, net, phi, base, group_of, group_members,
                    r1, r2, cluster_of[r1], cone_k, omega_star, tie_break, result, failures,
                )
                if outcome is not None:
                    return outcome
    raise SynthesisError(
        "no candidate produced a verifiable witness: " + "; ".join(failures[:5])
        if failures
        else "no racing pair with differing postsets found in the unfolding"
    )


def _modification_groups(pre: PreOrchNet, specs: CarrierSpecs, phi: dict[str, str]):
    """Synthesis modifies latencies per constraint group: events are free
    individually (the induced family choices are per-copy) unless the
    carrier declared an equality class, which ties all copies of all its
    transitions together."""
    group_of: dict[str, str] = {}
    group_members: dict[str, set[str]] = {}
    for e in pre.net.transitions:
        cls = specs.latency_class.get(phi[e])
        gid = f"event:{e}" if cls is None else f"class:{cls}"
        group_of[e] = gid
        group_members.setdefault(gid, set()).add(e)
    return group_of, group_members


def _attempt(
    pre: PreOrchNet,
    unf: Net,
    carrier: Net,
    phi,
    base: dict[str, ExtendedDate],
    group_of: dict[str, str],
    group_members: dict[str, set[str]],
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

    lo_lat: dict[str, ExtendedDate] = dict(base)

    # dates over the forced prefix K under the finite baseline
    k_dates = eval_dates(_materialize(pre, lo_lat, omega_star), omega_star, cone_k).dates
    n_star = date_max(k_dates.values())

    def raise_group(event: str, floor: ExtendedDate) -> bool:
        """Raise the whole constraint group to at least ``floor``; refuse if
        that would touch the forced prefix or the winner."""
        for member in group_members[group_of[event]]:
            if member == t1 or member in k_events:
                return False
        for member in group_members[group_of[event]]:
            if lo_lat[member] < floor:
                lo_lat[member] = floor
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
    d1 = date_max(k_dates[p] for p in unf.preset[t1]) + lo_lat[t1]
    for u in sorted(cluster_events):
        if u == t1 or u in k_events:
            continue
        if not raise_group(u, d1 + ExtendedDate(1)):
            failures.append(f"({t1},{t2}): cluster rival {u!r} shares a constraint group with the prefix")
            return None

    # the maximal configurations in order, searched once for all residuals
    # and only as far as some residual needed
    search = iter_maximal_configurations(unf)
    searched: list[frozenset[str]] = []

    def configurations():
        yield from searched
        for config in search:
            searched.append(config)
            yield config

    for residual in residuals:
        starved = tuple(sorted(unf.postset[residual]))
        lat = dict(lo_lat)
        ok = True
        for consumer in starved:
            group = group_members[group_of[consumer]]
            if t1 in group or group & k_events:
                ok = False
                break
            for member in group:
                lat[member] = DATE_INF
        if not ok:
            failures.append(f"({t1},{t2}): consumers of {residual!r} overlap the forced prefix")
            continue

        lo = _materialize(pre, lat, omega_star)
        if not any(
            not r.latency.is_finite and t1 in r.run.fired
            for r in resolutions(lo, omega_star, tie_break)
        ):
            failures.append(
                f"({t1},{t2},{residual}): forced run did not stall behind the winner"
            )
            continue

        # finite alternative maximal configuration under lo
        alternative = None
        alt_latency = None
        for config in configurations():
            lat_cfg = latency_of_prefix(lo, omega_star, config)
            if lat_cfg.is_finite:
                alternative = config
                alt_latency = lat_cfg
                break
        if alternative is None:
            failures.append(f"({t1},{t2},{residual}): every maximal configuration is infinite")
            continue

        hi_lat = dict(lat)
        floor = alt_latency + ExtendedDate(1)
        for t in sorted(unf.transitions - alternative):
            for member in group_members[group_of[t]]:
                if hi_lat[member] < floor:
                    hi_lat[member] = floor
        hi = _materialize(pre, hi_lat, omega_star)

        verification = verify_counterexample(lo, hi, omega_star, tie_break)
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


def _materialize(pre: PreOrchNet, lat: dict[str, ExtendedDate], omega_star: int) -> OrchNet:
    """An OrchNet whose latency at omega_star is ``lat`` and whose other
    omega columns keep the declared class specs."""
    latency: dict[str, LatencySpec] = {}
    for cls in sorted(pre.classes):
        spec = pre.class_spec[cls]
        for e in pre.classes[cls]:
            target = lat[e]
            if spec.is_tabular() and spec.value_at(omega_star) == target:
                latency[e] = spec
                continue
            table = []
            for omega in range(pre.omega_count):
                if omega == omega_star:
                    table.append(target)
                elif spec.is_tabular():
                    table.append(spec.value_at(omega))
                else:
                    raise SynthesisError(f"class {cls!r} has a non-tabular latency spec")
            latency[e] = LatencySpec(kind="per_omega", table=tuple(table))
    return pre.assemble(latency, pre.initial_date)
