"""The eager maximal-configuration search that
``nets.iter_maximal_configurations`` replaced, kept as the reference its
ordered, lazy search is compared against.

It explores include/exclude branches over the enabled transitions, collects
every leaf with nothing left to add, and sorts the configurations by their
sorted node tuples once the whole search is done.  The body is the replaced
``maximal_configurations``, unchanged.
"""

from __future__ import annotations

from orchnet.errors import CapExceededError
from orchnet.nets import Net, configuration_of, require_occurrence_net


def ref_maximal_configurations(net: Net, cap: int = 100_000) -> tuple[frozenset[str], ...]:
    """All maximal configurations of the occurrence net ``net``, as node
    sets, in deterministic order.

    Explores include/exclude branches over enabled transitions; every leaf is
    checked for maximality directly, so over-approximating branches cannot
    leak non-maximal results.  Raises CapExceededError if the search visits
    more than ``cap`` branch points.
    """
    require_occurrence_net(net)  # memoized per net

    pre, post = net.preset, net.postset
    producers = {
        t: {next(iter(net.preset[p])) for p in net.preset[t] if net.preset[p]}
        for t in net.transitions
    }
    results: set[frozenset[str]] = set()
    visited = 0
    stack = [(frozenset(), frozenset())]
    while stack:
        fired, banned = stack.pop()
        visited += 1
        if visited > cap:
            raise CapExceededError(f"maximal-configuration search exceeded cap {cap}")
        # transitions that could extend the fired set, banned ones included
        addable = [
            t for t in sorted(net.transitions - fired)
            if producers[t] <= fired and all(post[p].isdisjoint(fired) for p in pre[t])
        ]
        cands = [t for t in addable if t not in banned]
        if not cands:
            if not addable:
                results.add(fired)
            continue
        # a transition with no live rival (everyone sharing an input place
        # is banned already) belongs to every maximal configuration that
        # enables it, so include it without branching
        free = [
            t for t in cands
            if all(r == t or r in banned for p in pre[t] for r in post[p])
        ]
        if free:
            stack.append((fired | {free[0]}, banned))
            continue
        stack.append((fired, banned | {cands[0]}))
        stack.append((fired | {cands[0]}, banned))
    configs = sorted(
        (configuration_of(net, fired) for fired in results),
        key=lambda c: tuple(sorted(c)),
    )
    return tuple(configs)
