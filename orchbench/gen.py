"""Seeded input generators for the orchnet benchmark.

Every generator returns plain JSON-ready ``.net`` documents together with
the answer the benchmark expects for them, computed here from the way the
net was built and never from the package under test.

* Workflow nets follow the series-parallel block shape of the acceptance
  tests' random nets (a chain of blocks between a source and a sink, a
  block being a transition, a sequence, an AND split/join, an
  equal-postset choice or a differing-postset choice).  The code is a
  copy, so that a test change cannot shift the workload, and it draws
  from the random stream in exactly the same order: at the acceptance
  seed the first 200 grid-oracle documents are the acceptance mix.
* Occurrence nets for the race workload are block trees: chains,
  fork/join ladders and free-choice race trees whose branches never
  merge.  Latencies are per-scenario tables, so the race winners differ
  between scenarios.  ``_evaluate`` runs the race on the block tree
  itself: a conflict is free choice, so its winner is decided locally by
  (date, transition id).

Each workload's inputs are one endless stream per seed; a run takes as
many documents from it as it has time for.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

ACCEPTANCE_SEED = 20260823
GRID = ("0", "1", "2", "5")


# ---------------------------------------------------------------------------
# Workflow nets (the acceptance-test shape)


class _Names:
    def __init__(self) -> None:
        self.counter = 0

    def __call__(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"


def _emit(rng, arcs, names, entry, exit_, budget, allow_diff, state) -> None:
    """Emit exactly ``budget`` transitions between two places."""
    if budget == 1:
        t = names("t")
        arcs[t] = ((entry,), (exit_,))
        return
    kinds = ["seq", "seq"]
    if budget >= 2:
        kinds.append("equal")
    if budget >= 4:
        kinds.append("and")
        if allow_diff:
            kinds += ["diff", "diff"]
    kind = rng.choice(kinds)

    if kind == "seq":
        left = rng.randint(1, budget - 1)
        mid = names("p")
        _emit(rng, arcs, names, entry, mid, left, allow_diff, state)
        _emit(rng, arcs, names, mid, exit_, budget - left, allow_diff, state)
    elif kind == "equal":
        k = 2 if budget < 3 else rng.choice((2, 3))
        rest = budget - k
        target = exit_ if rest == 0 else names("p")
        for _ in range(k):
            t = names("t")
            arcs[t] = ((entry,), (target,))
            state["heads"].add(t)
        if rest:
            _emit(rng, arcs, names, target, exit_, rest, allow_diff, state)
    elif kind == "and":
        inner = budget - 2
        left = rng.randint(1, inner - 1)
        split, join = names("t"), names("t")
        e1, e2, x1, x2 = names("p"), names("p"), names("p"), names("p")
        arcs[split] = ((entry,), (e1, e2))
        arcs[join] = ((x1, x2), (exit_,))
        _emit(rng, arcs, names, e1, x1, left, allow_diff, state)
        _emit(rng, arcs, names, e2, x2, inner - left, allow_diff, state)
    else:  # diff
        state["diff"] = True
        inner = budget - 2
        left = rng.randint(1, inner - 1)
        t1, t2 = names("t"), names("t")
        m1, m2 = names("p"), names("p")
        arcs[t1] = ((entry,), (m1,))
        arcs[t2] = ((entry,), (m2,))
        state["heads"].update((t1, t2))
        _emit(rng, arcs, names, m1, exit_, left, allow_diff, state)
        _emit(rng, arcs, names, m2, exit_, inner - left, allow_diff, state)


@dataclass(frozen=True)
class Workflow:
    """One generated workflow document and what is known about it."""

    name: str
    size: int
    clean: bool  # no differing-postset choice: the cluster condition holds
    document: dict


def random_workflow(rng: random.Random, size: int, clean: bool, name: str) -> Workflow:
    """A sound series-parallel workflow of ``size`` transitions.

    ``clean`` nets use equal-postset choices only; the others contain at
    least one differing-postset choice.  Tagged nets (a coin flip, as in
    the acceptance tests) give choice heads a constant atom value; every
    other transition threads the tuple of its inputs.
    """
    while True:
        arcs: dict = {}
        names = _Names()
        state = {"diff": False, "heads": set()}
        _emit(rng, arcs, names, "i", "o", size, not clean, state)
        if clean or state["diff"]:
            break
    tagged = rng.random() < 0.5
    places = sorted({p for pre, post in arcs.values() for p in (*pre, *post)})
    transitions = []
    for t in sorted(arcs):
        pre, post = arcs[t]
        entry = {
            "id": t,
            "pre": sorted(pre),
            "post": sorted(post),
            "latency": {"kind": "const", "value": "1"},
        }
        if not (tagged and t in state["heads"]):
            # a head of a tagged net keeps the document default, the atom t
            entry["value_fn"] = {"kind": "tuple_of_inputs"}
        transitions.append(entry)
    document = {
        "format_version": 1,
        "kind": "workflow",
        "omega_count": 1,
        "places": [
            {"id": p, "initial_date": {"kind": "const", "value": "0"}} if p == "i" else {"id": p}
            for p in places
        ],
        "transitions": transitions,
        "grids": {t: list(GRID) for t in sorted(arcs)},
        "place_grids": {},
        "flags": {"upward_closed": True},
    }
    return Workflow(name=name, size=size, clean=clean, document=document)


PASS_SIZES = (2, 3, 3, 4, 4, 5, 5, 6)
FAIL_SIZES = (4, 4, 5, 5, 6, 6, 7, 8)


def grid_oracle_stream(seed: int):
    """The acceptance mix, block after block, from one random stream.

    Each block is 100 structure-clean nets (sizes 2..6) then 100
    structure-failing nets (sizes 4..8), drawn exactly as the acceptance
    tests draw theirs; block 0 at the acceptance seed is their corpus.
    Each block is yielded with clean and failing nets interleaved, so any
    prefix holds both kinds and every size in a fixed proportion.
    """
    rng = random.Random(seed)
    for b in itertools.count():
        clean = [
            random_workflow(rng, PASS_SIZES[i % 8], True, f"b{b}-pass{i:03d}") for i in range(100)
        ]
        failing = [
            random_workflow(rng, FAIL_SIZES[i % 8], False, f"b{b}-fail{i:03d}") for i in range(100)
        ]
        for pair in zip(clean, failing):
            yield from pair


def _spread(sizes: tuple) -> tuple:
    """The sizes in an order that steps through them 17 at a time, so that
    any stretch of a cycle holds a fair share of small and large ones."""
    n = len(sizes)
    assert math.gcd(17, n) == 1
    return tuple(sizes[k * 17 % n] for k in range(n))


# Synthesis sizes come in cycles of 66 nets of 10..20 transitions,
# weighted towards the small end (11 nets of 10, 10 of 11, ..., 1 of 20).
# The synthesis cost has a heavy tail that grows with size: the slowest of
# 600 nets took 0.4 s at 18 transitions and 2.4 s at 20, but 6.5 s of 40
# nets at 23 and 47 s at 26, and nets of 40..60 run for minutes.  Above 20
# some op of a run would outlast any per-op limit; the sizes stop there so
# that every op of the workload completes.
_SYNTHESIS_SIZES = _spread(tuple(size for size in range(10, 21) for _ in range(21 - size)))


def synthesis_stream(seed: int):
    """Structure-failing workflows for counterexample synthesis."""
    rng = random.Random(seed)
    for cycle in itertools.count():
        for size in _SYNTHESIS_SIZES:
            yield random_workflow(rng, size, False, f"c{cycle}-synth{size}")


# ---------------------------------------------------------------------------
# Occurrence race trees


def _date(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class _Builder:
    """Collects the transitions of one occurrence net, in creation order."""

    def __init__(self, rng: random.Random, omegas: int) -> None:
        self.rng = rng
        self.omegas = omegas
        self.places = 0
        self.arcs: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[Fraction, ...]]] = {}

    def place(self) -> str:
        self.places += 1
        return f"p{self.places:05d}"

    def transition(self, pre, post) -> str:
        t = f"t{len(self.arcs) + 1:05d}"
        # latencies in halves, 0..5, independently per scenario
        table = tuple(Fraction(self.rng.randint(0, 10), 2) for _ in range(self.omegas))
        self.arcs[t] = (tuple(pre), tuple(post), table)
        return t


# A block tree node is one of
#   ("chain", [t, ...])                      transitions in sequence
#   ("ladder", [(fork, [a...], [b...], join), ...])  fork/join rungs
#   ("choice", [(head, subtree), ...])      free choice, branches never merge
# and a tree is a list of nodes applied in sequence; only the last node of
# a tree may be a choice, because its branches never come back together.


def _chain(b: _Builder, entry: str, n: int):
    ts = []
    for _ in range(n):
        nxt = b.place()
        ts.append(b.transition([entry], [nxt]))
        entry = nxt
    return ("chain", ts), entry


def _ladder(b: _Builder, entry: str, n: int):
    """Rungs of fork, two parallel chains, join: about ``n`` transitions."""
    rungs = []
    while n >= 4:
        left = b.rng.randint(1, min(n - 3, 6))
        right = b.rng.randint(1, min(n - 2 - left, 6))
        e1, e2 = b.place(), b.place()
        fork = b.transition([entry], [e1, e2])
        (_, left_ts), x1 = _chain(b, e1, left)
        (_, right_ts), x2 = _chain(b, e2, right)
        entry = b.place()
        join = b.transition([x1, x2], [entry])
        rungs.append((fork, left_ts, right_ts, join))
        n -= left + right + 2
    node, entry = _chain(b, entry, n)
    return [("ladder", rungs), node], entry


def _race_tree(b: _Builder, entry: str, n: int, depth: int):
    """A free-choice race tree of about ``n`` transitions."""
    if n <= 8 or depth == 0:
        node, _ = _chain(b, entry, max(n, 1))
        return [node]
    k = b.rng.choice((2, 2, 3))
    stem = b.rng.randint(1, max(1, n // 8))
    (node, entry) = _chain(b, entry, stem)
    rest = n - stem - k
    branches = []
    for i in range(k):
        share = rest // k + (1 if i < rest % k else 0)
        start = b.place()
        head = b.transition([entry], [start])
        branches.append((head, _race_tree(b, start, share, depth - 1)))
    return [node, ("choice", branches)]


@dataclass(frozen=True)
class RaceNet:
    name: str
    shape: str
    size: int
    omega: int
    document: dict
    latency: str  # expected end-to-end latency, as the package formats it
    fired: int  # expected number of transitions fired


def _evaluate(tree, date: Fraction, arcs, omega: int) -> tuple[Fraction, int]:
    """Date at the end of the tree and transitions fired, under the race."""
    fired = 0
    for kind, body in tree:
        if kind == "chain":
            for t in body:
                date += arcs[t][2][omega]
            fired += len(body)
        elif kind == "ladder":
            for fork, left, right, join in body:
                start = date + arcs[fork][2][omega]
                ends = [start + sum(arcs[t][2][omega] for t in side) for side in (left, right)]
                date = max(ends) + arcs[join][2][omega]
                fired += 2 + len(left) + len(right)
        else:  # choice: the earliest rival wins, ties to the smaller id
            head, sub = min(body, key=lambda hb: (date + arcs[hb[0]][2][omega], hb[0]))
            end, sub_fired = _evaluate(sub, date + arcs[head][2][omega], arcs, omega)
            return end, fired + 1 + sub_fired
    return date, fired


def race_net(rng: random.Random, shape: str, size: int, name: str, omegas: int = 3) -> RaceNet:
    b = _Builder(rng, omegas)
    source = b.place()
    if shape == "chain":
        node, _ = _chain(b, source, size)
        tree = [node]
    elif shape == "ladder":
        tree, _ = _ladder(b, source, size)
    else:
        tree = _race_tree(b, source, size, depth=8)
    omega = rng.randrange(omegas)
    latency, fired = _evaluate(tree, Fraction(0), b.arcs, omega)
    places = sorted({p for pre, post, _ in b.arcs.values() for p in (*pre, *post)})
    document = {
        "format_version": 1,
        "kind": "occurrence",
        "omega_count": omegas,
        "places": [{"id": p} for p in places],
        "transitions": [
            {
                "id": t,
                "pre": sorted(pre),
                "post": sorted(post),
                "latency": {"kind": "per_omega", "values": [_date(q) for q in table]},
            }
            for t, (pre, post, table) in sorted(b.arcs.items())
        ],
        "grids": {},
        "place_grids": {},
        "flags": {"upward_closed": False},
    }
    return RaceNet(
        name=name,
        shape=shape,
        size=len(b.arcs),
        omega=omega,
        document=document,
        latency=_date(latency),
        fired=fired,
    )


_RACE_SIZES = (
    50, 60, 70, 80, 90, 100, 120, 140, 160, 180, 200, 230, 260, 300, 340, 380,
    50, 60, 70, 80, 90, 100, 120, 140, 160, 180, 200, 230, 260, 300, 340, 380,
    430, 480, 540, 600, 680, 760, 850, 950, 1100, 1250, 1400, 1600,
)
# A chain or a ladder fires every one of its transitions, and the race
# recurses once per step: past about 980 steps it raises RecursionError.
# Chains and ladders therefore stay at or below LINEAR_MAX transitions; a
# larger size in the cycle is raced as a tree, which fires about a tenth.
LINEAR_MAX = 900
# (shape, transitions) in a fixed cycle of 44: sizes spread from 50 to 1,600
# on a roughly geometric scale, the three shapes taking turns.
RACE_SCHEDULE = _spread(
    tuple(
        ("tree" if size > LINEAR_MAX else ("chain", "ladder", "tree")[i % 3], size)
        for i, size in enumerate(_RACE_SIZES)
    )
)


def race_stream(seed: int):
    rng = random.Random(seed)
    for i in itertools.count():
        shape, size = RACE_SCHEDULE[i % len(RACE_SCHEDULE)]
        yield race_net(rng, shape, size, f"race{i:04d}-{shape}{size}")


# ---------------------------------------------------------------------------


def document_text(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def digest(texts) -> str:
    """One SHA-256 over the generated documents, in op order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()
