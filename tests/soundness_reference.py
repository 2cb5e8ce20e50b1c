"""The soundness check as it was before the consumer index, kept as the
differential reference for ``orchnet.nets.is_sound``.

It pops its queue with ``list.pop(0)``, tries every transition, sorted,
at each marking, proves option to complete with a ``while changed``
fixpoint over all markings, and sorts every marking twice for the issue
lists.  ``tests/test_soundness_reference.py`` compares the two.
"""

from __future__ import annotations

from orchnet.nets import SoundnessIssue, SoundnessVerdict, WorkflowNet


def ref_is_sound(wf: WorkflowNet, marking_cap: int = 1_000_000) -> SoundnessVerdict:
    """Exhaustive marking-graph soundness check.

    Verifies, over the full reachability graph from the source marking:
    1-safety (no firing doubles a token), option to complete (every
    reachable marking can still mark the sink), proper completion (a marking
    containing the sink is exactly the sink), and absence of dead
    transitions.  Exceeding ``marking_cap`` yields status "undecided".
    """
    net = wf.net
    start = frozenset({wf.source})
    seen: dict[frozenset[str], list[tuple[str, frozenset[str]]]] = {start: []}
    queue = [start]
    fired_somewhere: set[str] = set()
    issues: list[SoundnessIssue] = []

    while queue:
        if len(seen) > marking_cap:
            return SoundnessVerdict(
                status="undecided",
                issues=(
                    SoundnessIssue(
                        kind="cap",
                        message=f"marking exploration exceeded cap {marking_cap}",
                    ),
                ),
                markings_explored=len(seen),
            )
        marking = queue.pop(0)
        succs = seen[marking]
        for t in sorted(net.transitions):
            if not net.preset[t] <= marking:
                continue
            residue = marking - net.preset[t]
            collision = residue & net.postset[t]
            if collision:
                issues.append(
                    SoundnessIssue(
                        kind="not_safe",
                        marking=tuple(sorted(marking)),
                        transition=t,
                        message=f"firing {t!r} at {sorted(marking)} doubles token on {sorted(collision)}",
                    )
                )
                continue
            nxt = residue | net.postset[t]
            fired_somewhere.add(t)
            succs.append((t, nxt))
            if nxt not in seen:
                seen[nxt] = []
                queue.append(nxt)

    if issues:
        # an unsafe net is outside the class this check decides
        return SoundnessVerdict(status="unsound", issues=tuple(issues), markings_explored=len(seen))

    # option to complete: propagate "can reach a sink-marked marking" backwards
    good = {m for m in seen if wf.sink in m}
    changed = True
    while changed:
        changed = False
        for m, succs in seen.items():
            if m not in good and any(nxt in good for _, nxt in succs):
                good.add(m)
                changed = True
    for m in sorted(seen, key=lambda m: tuple(sorted(m))):
        if m not in good:
            issues.append(
                SoundnessIssue(
                    kind="cannot_complete",
                    marking=tuple(sorted(m)),
                    message=f"marking {sorted(m)} cannot reach the sink {wf.sink!r}",
                )
            )

    for m in sorted(seen, key=lambda m: tuple(sorted(m))):
        if wf.sink in m and m != frozenset({wf.sink}):
            issues.append(
                SoundnessIssue(
                    kind="improper_completion",
                    marking=tuple(sorted(m)),
                    message=f"marking {sorted(m)} contains the sink alongside other tokens",
                )
            )

    for t in sorted(net.transitions - fired_somewhere):
        issues.append(
            SoundnessIssue(
                kind="dead_transition",
                transition=t,
                message=f"transition {t!r} is dead (never enabled)",
            )
        )

    status = "sound" if not issues else "unsound"
    return SoundnessVerdict(status=status, issues=tuple(issues), markings_explored=len(seen))
