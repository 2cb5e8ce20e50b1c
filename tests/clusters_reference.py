"""The cluster partition as it was before the one-traversal version, kept
as the differential reference for ``orchnet.nets.clusters``: a union-find
over the place-consumer arcs, then one grouping pass over every node.
``tests/test_soundness_reference.py`` compares the two.
"""

from __future__ import annotations

from orchnet.nets import Cluster, Net


def ref_clusters(net: Net) -> tuple[Cluster, ...]:
    """Partition the nodes into minimal closed sets.

    A set is closed when it contains the preset of each of its transitions
    and every consumer of each of its places.  Since "p in preset of t" and
    "t consumes p" are the same arcs read both ways, the minimal closed sets
    are the connected components of the place-to-consumer incidence graph.
    Components without transitions are degenerate (unconsumed places).
    """
    parent: dict[str, str] = {n: n for n in net.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for t in net.transitions:
        for p in net.preset[t]:
            union(p, t)

    groups: dict[str, set[str]] = {}
    for n in net.nodes:
        groups.setdefault(find(n), set()).add(n)

    result = []
    for members in groups.values():
        ms = frozenset(members)
        result.append(
            Cluster(
                nodes=ms,
                transitions=ms & net.transitions,
                places=ms & net.places,
            )
        )
    result.sort(key=lambda c: min(c.nodes))
    return tuple(result)
