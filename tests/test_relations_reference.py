"""Differential test: choice-map relations against the causal-past tables.

The reference below is ``compute_relations`` as it was before the choice
maps: every node's whole causal past (``below``) stored eagerly,
self-conflicts found by inverting it into ``above``, conflict decided by
scanning ``conflict_base`` for a pair split across the two cones, and the
prefix checks, the date evaluation order and the future of a prefix read
off those tables.  On seeded random nets (cyclic ones, places with several
producers, presetless transitions and self-conflicts included) and on the
unfoldings of the 200-net corpus, the validation diagnostics, the
topological order, every relation between nodes that are not
self-conflicting, both prefix checks, ``eval_dates`` and ``future`` must
come out equal.  ``eval_dates`` is compared again on specs whose value
functions raise, whose guards are false or raise, and whose latencies are
expressions over token values.
"""

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from orchnet import (
    INFINITE_LATENCY,
    EvaluationError,
    GuardOperand,
    GuardSpec,
    LatencyExpr,
    LatencySpec,
    NetStructureError,
    OrchNet,
    ValueFnSpec,
    atom,
    const_latency,
    const_value_fn,
    date_of,
    eval_dates,
    execute,
    future,
    num,
    unfold,
    validate_occurrence_net,
)
from orchnet.nets import (
    Net,
    _cycle_node,
    compute_relations,
    configuration_of,
    is_causally_closed,
    is_conflict_free,
    net_from_arcs,
)

from .race_reference import transition_date
from .randnets import standard_corpus

# ---------------------------------------------------------------------------
# Reference implementation


@dataclass(frozen=True)
class RefRelations:
    net: Net
    order: list[str]
    below: dict[str, frozenset[str]]
    conflict_base: frozenset[frozenset[str]]

    @cached_property
    def above(self):
        up = {n: set() for n in self.net.nodes}
        for node, past in self.below.items():
            for p in past:
                up[p].add(node)
        return {n: frozenset(s) for n, s in up.items()}

    def lt(self, x, y):
        return x in self.below[y]

    def in_conflict(self, x, y):
        ts = self.net.transitions
        xt = (self.below[x] | {x}) & ts
        yt = (self.below[y] | {y}) & ts
        for pair in self.conflict_base:
            a, b = tuple(pair)
            if (a in xt and b in yt) or (b in xt and a in yt):
                return True
        return False

    def self_conflicts(self):
        bad = set()
        for pair in self.conflict_base:
            a, b = tuple(pair)
            bad |= (self.above[a] | {a}) & (self.above[b] | {b})
        return frozenset(bad)

    def relation(self, x, y):
        if x == y:
            return "eq"
        if self.lt(x, y):
            return "lt"
        if self.lt(y, x):
            return "gt"
        if self.in_conflict(x, y):
            return "conflict"
        return "concurrent"


def ref_topological_order(net):
    indeg = {n: len(net.preset[n]) for n in net.nodes}
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in sorted(net.postset[node]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
                ready.sort()
    return order


def ref_compute_relations(net):
    order = ref_topological_order(net)
    below = {}
    for node in order:
        past = set()
        for parent in net.preset[node]:
            past.add(parent)
            past |= below[parent]
        below[node] = frozenset(past)
    base = set()
    for p in net.places:
        consumers = sorted(net.postset[p])
        for i, a in enumerate(consumers):
            for b in consumers[i + 1 :]:
                base.add(frozenset((a, b)))
    return RefRelations(net=net, order=order, below=below, conflict_base=frozenset(base))


def ref_diagnostics(net):
    diags = []
    cyc = _cycle_node(net)
    if cyc is not None:
        diags.append(("partial_order", (cyc,), f"flow graph has a cycle through {cyc!r}"))
    for p in sorted(net.places):
        producers = net.preset[p]
        if len(producers) > 1:
            diags.append(
                ("unique_producer", (p, *sorted(producers)), f"place {p!r} has {len(producers)} producers")
            )
    minimal = frozenset(p for p in net.places if not net.preset[p])
    if net.initial_marking != minimal:
        missing = sorted(minimal - net.initial_marking)
        extra = sorted(net.initial_marking - minimal)
        diags.append(
            (
                "initial_marking",
                tuple(missing + extra),
                f"initial marking must equal the minimal places (missing {missing}, extra {extra})",
            )
        )
    if cyc is None:
        for x in sorted(ref_compute_relations(net).self_conflicts()):
            diags.append(("no_self_conflict", (x,), f"node {x!r} is in conflict with itself"))
    return diags


def ref_is_causally_closed(rel, nodes):
    return all(rel.below[n] <= nodes for n in nodes)


def ref_is_conflict_free(rel, nodes):
    ts = sorted(nodes & rel.net.transitions)
    return not any(
        frozenset((a, b)) in rel.conflict_base for i, a in enumerate(ts) for b in ts[i + 1 :]
    )


def ref_eval_dates(orch, rel, omega, prefix):
    """Dates and values of a prefix, or the error ``eval_dates`` raises.

    Nodes are dated in topological order, as ``eval_dates`` dates them, so
    of two transitions that raise, the same one raises first."""
    net = orch.net
    if not ref_is_causally_closed(rel, prefix):
        bad = sorted(n for n in prefix if not rel.below[n] <= prefix)
        return f"prefix is not causally closed at {bad}"
    if not ref_is_conflict_free(rel, prefix):
        return "prefix is not conflict-free"
    dates, values = {}, {}
    for node in (n for n in rel.order if n in prefix):
        if node in net.places:
            producers = net.preset[node] & prefix
            if producers:
                (producer,) = producers
                dates[node], values[node] = dates[producer], values[producer]
            else:
                dates[node] = orch.initial_date[node].value_at(omega)
                values[node] = orch.initial_value[node]
        else:
            dates[node], values[node] = transition_date(orch, node, omega, dates, values)
    return dates, values


def ref_future_nodes(rel, kappa):
    """The node set and initial marking of ``future(orch, kappa, omega)``."""
    net = rel.net
    max_places = frozenset(p for p in kappa & net.places if not (rel.above[p] & kappa))
    blocked = {n for n in net.nodes - kappa if any(rel.in_conflict(n, k) for k in kappa)}
    keep = (net.nodes - (kappa - max_places) - blocked) | max_places
    marking = frozenset(
        p for p in keep & net.places if not any(src in keep for src in net.preset[p])
    )
    return keep, marking | max_places


# ---------------------------------------------------------------------------
# Nets


def random_tables(rng):
    """An arbitrary net over up to 14 nodes, acyclic unless a back arc is
    added, as ``net_from_arcs`` takes it: its transition tables, places
    and marking.  Ids are drawn so that id order is not the flow order."""
    size = rng.randint(1, 14)
    ids = [f"n{k:02d}" for k in rng.sample(range(100), size)]
    is_place = {n: rng.random() < 0.5 for n in ids}
    density = rng.choice((0.15, 0.3, 0.5))
    one_producer = rng.random() < 0.5
    flow = set()
    for j, dst in enumerate(ids):
        for src in ids[:j]:
            if is_place[src] != is_place[dst] and rng.random() < density:
                if one_producer and is_place[dst] and any(d == dst for _, d in flow):
                    continue
                flow.add((src, dst))
    if rng.random() < 0.1:
        back = [(b, a) for i, a in enumerate(ids) for b in ids[i + 1 :] if is_place[a] != is_place[b]]
        if back:
            flow.add(rng.choice(back))
    places = frozenset(n for n in ids if is_place[n])
    minimal = {p for p in places if not any(d == p for _, d in flow)}
    if rng.random() < 0.1 and places:
        minimal ^= {rng.choice(sorted(places))}
    tables = {
        t: ([s for s, d in flow if d == t], [d for s, d in flow if s == t])
        for t in sorted(frozenset(ids) - places)
    }
    return tables, places, frozenset(minimal)


def random_net(rng) -> Net:
    tables, places, marking = random_tables(rng)
    return net_from_arcs(tables, places=places, marking=marking)


def random_subsets(rng, net, ref):
    """Uniform subsets, unions of cones, and unions of cones with one node
    taken out."""
    nodes = sorted(net.nodes)
    subsets = [frozenset(n for n in nodes if rng.random() < 0.5) for _ in range(3)]
    for _ in range(3):
        picked = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
        closed = frozenset().union(*(ref.below[n] | {n} for n in picked))
        subsets.append(closed)
        subsets.append(closed - {rng.choice(sorted(closed))})
    return subsets


def simple_orch(net) -> OrchNet:
    return OrchNet(
        net=net,
        latency={t: const_latency(1 + sum(map(ord, t)) % 3) for t in net.transitions},
        value_fn={t: const_value_fn(atom(t)) for t in net.transitions},
        initial_date={p: const_latency(0) for p in net.minimal_places},
    )


def rich_orch(net, rng) -> OrchNet:
    """Specs that take every path of ``OrchNet.delay_of``: value functions
    that raise or deliver atoms, guards that are false or raise on atoms,
    and ``expr`` latencies that read token values or raise on atoms."""
    half = LatencyExpr(op="const", const=date_of("1/2"))
    read_input = LatencySpec(
        kind="expr", expr=LatencyExpr(op="add", args=(LatencyExpr(op="input", index=0), half))
    )
    value_fn, guard, latency = {}, {}, {}
    for t in sorted(net.transitions):
        value_fn[t] = rng.choice(
            (
                ValueFnSpec(kind="select", index=7),  # raises: no eighth input
                ValueFnSpec(kind="select", index=0),  # raises without inputs
                ValueFnSpec(kind="sum"),  # raises on atoms
                const_value_fn(atom(t)),
                const_value_fn(num(rng.choice("0123"))),
            )
        )
        if rng.random() < 0.4:
            guard[t] = GuardSpec(
                op=rng.choice(("eq", "lt", "leq")),
                left=GuardOperand(kind="select", index=0),
                right=GuardOperand(kind="const", const=num(rng.choice("0123"))),
            )
        latency[t] = rng.choice(
            (const_latency("1/3"), const_latency(2), INFINITE_LATENCY, read_input)
        )
    return OrchNet(
        net=net,
        latency=latency,
        value_fn=value_fn,
        initial_date={p: const_latency(rng.choice(("0", "1"))) for p in sorted(net.minimal_places)},
        guard=guard,
        initial_value={p: num(rng.choice("0123")) for p in sorted(net.minimal_places)},
    )


# ---------------------------------------------------------------------------
# Comparison


def assert_same_relations(net, rng) -> Counter:
    seen = Counter(nets=1)
    diags = [(d.condition, d.witness, d.message) for d in validate_occurrence_net(net).diagnostics]
    assert diags == ref_diagnostics(net)
    seen["diagnostics"] += len(diags)
    seen["self_conflict_diagnostics"] += sum(d[0] == "no_self_conflict" for d in diags)
    if _cycle_node(net) is not None:
        seen["cyclic"] += 1
        return seen

    rel, ref = compute_relations(net), ref_compute_relations(net)
    assert rel.self_conflicting == ref.self_conflicts()
    assert all(rel.cone(n) == ref.below[n] | {n} for n in net.nodes)
    plain = sorted(net.nodes - rel.self_conflicting)
    for x in plain:
        for y in plain:
            assert rel.relation(x, y) == ref.relation(x, y), (x, y)
            seen["pairs"] += 1

    subsets = random_subsets(rng, net, ref)
    for nodes in subsets:
        assert is_causally_closed(net, nodes) == ref_is_causally_closed(ref, nodes), nodes
        assert is_conflict_free(net, nodes) == ref_is_conflict_free(ref, nodes), nodes
        seen["subsets"] += 1
        seen["closed"] += ref_is_causally_closed(ref, nodes)
        seen["conflict_free"] += ref_is_conflict_free(ref, nodes)

    if diags:
        return seen
    seen["valid"] += 1
    orch = simple_orch(net)
    for nodes in subsets:
        expected = ref_eval_dates(orch, ref, 0, nodes)
        try:
            ev = eval_dates(orch, 0, nodes)
        except NetStructureError as err:
            assert str(err) == expected
            seen["rejected_prefixes"] += 1
        else:
            assert (ev.dates, ev.values) == expected
            seen["evaluated_prefixes"] += 1
    order = execute(orch, 0).step_order
    for k in range(1, len(order) + 1):
        kappa = configuration_of(net, frozenset(order[:k]))
        rest = future(orch, kappa, 0)
        assert (rest.net.nodes, rest.net.initial_marking) == ref_future_nodes(ref, kappa)
        seen["futures"] += 1
    return seen


def test_random_nets_match_the_reference():
    rng = random.Random(5501)
    seen = Counter()
    for _ in range(3_000):
        seen += assert_same_relations(random_net(rng), rng)
    assert seen == Counter(
        nets=3_000,
        cyclic=97,
        valid=2_055,
        diagnostics=2_000,
        self_conflict_diagnostics=638,
        pairs=191_268,
        subsets=26_127,
        closed=19_755,
        conflict_free=23_959,
        evaluated_prefixes=14_800,
        rejected_prefixes=3_695,
        futures=5_792,
    )


def test_corpus_unfoldings_match_the_reference():
    rng = random.Random(5502)
    seen = Counter()
    for gen in standard_corpus(total=200):
        seen += assert_same_relations(unfold(gen.workflow).unfolding, rng)
    assert seen == Counter(
        nets=200,
        valid=200,
        pairs=32_220,
        subsets=1_800,
        closed=798,
        conflict_free=1_339,
        evaluated_prefixes=558,
        rejected_prefixes=1_242,
        futures=595,
    )


# ---------------------------------------------------------------------------
# eval_dates through value functions, guards and expression latencies


def assert_same_dates(net, rng) -> Counter:
    """``eval_dates`` and the reference agree on each prefix: the same dates
    and values, or the same error type and message.  Besides the random
    subsets, each transition's strict past (which stops just before it) and
    that past with the transition are evaluated."""
    ref = ref_compute_relations(net)
    orch = rich_orch(net, rng)
    prefixes = random_subsets(rng, net, ref)
    for t in sorted(net.transitions):
        prefixes += [ref.below[t], ref.below[t] | {t}]
    seen = Counter(nets=1)
    outcome = {}
    for nodes in prefixes:
        try:
            expected = ref_eval_dates(orch, ref, 0, nodes)
        except EvaluationError as exc:
            expected = (EvaluationError, str(exc))
        try:
            ev = eval_dates(orch, 0, nodes)
        except NetStructureError as exc:
            got, outcome[nodes] = str(exc), "rejected"
        except EvaluationError as exc:
            got, outcome[nodes] = (type(exc), str(exc)), "raised"
        else:
            got, outcome[nodes] = (ev.dates, ev.values), "evaluated"
            seen["infinite"] += not all(d.is_finite for d in ev.dates.values())
            seen["false_guards"] += sum(
                not orch.guard[t].evaluate(tuple(ev.values[p] for p in sorted(net.preset[t])))
                for t in nodes & orch.guard.keys()
            )
        assert got == expected, nodes
        seen[outcome[nodes]] += 1
    for t in sorted(net.transitions):
        # the prefix before t evaluates, the one that reaches t raises
        seen["stops_before_raise"] += (outcome[ref.below[t]], outcome[ref.below[t] | {t}]) == (
            "evaluated",
            "raised",
        )
    return seen


def test_eval_dates_matches_the_reference_through_values_guards_and_expressions():
    rng = random.Random(5503)
    seen = Counter()
    for _ in range(1_500):
        net = random_net(rng)
        if validate_occurrence_net(net).ok:
            seen += assert_same_dates(net, rng)
    for gen in standard_corpus(total=40):
        seen += assert_same_dates(unfold(gen.workflow).unfolding, rng)
    # every path is taken: dates, false guards, errors, and prefixes that
    # stop before a transition that raises
    assert seen == Counter(
        nets=1_071,
        evaluated=8_124,
        rejected=2_196,
        raised=6_321,
        infinite=1_014,
        false_guards=388,
        stops_before_raise=1_929,
    )
