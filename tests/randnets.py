"""Seeded random workflow nets shared by the property and acceptance tests.

Nets are series-parallel: a chain of blocks between one source and one
sink, where a block is a single transition, a sequence, an AND
(split/join) block, an equal-postset choice (the racing transitions fuse
into one place: the cluster condition holds), or a differing-postset
choice (each branch continues through its own place: the cluster
condition fails).  Construction keeps them acyclic, 1-safe, and sound;
the generator asserts soundness anyway.

Latency classes default to one per transition; every class gets the grid
{0, 1, 2, 5} with declared baseline 1.  "Tagged" nets give choice heads
a constant atom value (so different branches deliver different values);
untagged nets thread plain input tuples everywhere, which typically
collapses branch identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from orchnet import (
    CarrierSpecs,
    FamilyAssignment,
    PreOrchNet,
    WorkflowNet,
    induced_preorchnet,
    unfold,
)
from orchnet.attributes import atom, parse_date
from orchnet.nets import is_sound, net_from_arcs
from orchnet.specs import ValueFnSpec, const_latency, const_value_fn

GRID = tuple(parse_date(s) for s in ("0", "1", "2", "5"))


@dataclass(frozen=True)
class GeneratedNet:
    name: str
    workflow: WorkflowNet
    specs: CarrierSpecs
    has_diff_choice: bool
    tagged: bool
    choice_heads: frozenset[str]

    def unfolded_pre(self) -> PreOrchNet:
        result = unfold(self.workflow)
        return induced_preorchnet(result, self.specs)


def grid_members(pre: PreOrchNet) -> tuple[FamilyAssignment, ...]:
    """Every member of ``pre``'s grid, in canonical (index) order."""
    grid = pre.grid_index
    return tuple(map(grid.member, range(grid.size)))


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


def random_shape(
    rng: random.Random, size: int, allow_diff: bool = True, force_diff: bool = False
) -> tuple[WorkflowNet, dict]:
    """The bare net of ``random_workflow``: sound by construction, but not
    checked, which takes most of the time on nets of 40 or more transitions."""
    if force_diff and size < 4:
        raise ValueError("differing-postset choice blocks need at least 4 transitions")
    while True:
        arcs: dict = {}
        names = _Names()
        state = {"diff": False, "heads": set()}
        _emit(rng, arcs, names, "i", "o", size, allow_diff, state)
        if force_diff and not state["diff"]:
            continue
        break
    return WorkflowNet.from_net(net_from_arcs(arcs)), state


def random_workflow(
    rng: random.Random,
    size: int,
    allow_diff: bool = True,
    force_diff: bool = False,
    tagged: bool | None = None,
    name: str = "gen",
) -> GeneratedNet:
    wf, state = random_shape(rng, size, allow_diff, force_diff)
    verdict = is_sound(wf)
    if verdict.status != "sound":
        raise AssertionError(f"generator produced a non-sound net: {verdict.issues}")

    if tagged is None:
        tagged = rng.random() < 0.5
    heads = frozenset(state["heads"])
    value_fn = {}
    for t in wf.net.transitions:
        if tagged and t in heads:
            value_fn[t] = const_value_fn(atom(t))
        else:
            value_fn[t] = ValueFnSpec(kind="tuple_of_inputs")
    specs = CarrierSpecs(
        latency={t: const_latency(1) for t in wf.net.transitions},
        value_fn=value_fn,
        initial_date={wf.source: const_latency(0)},
        class_grid={t: GRID for t in wf.net.transitions},
        omega_count=1,
        upward_closed=True,
    )
    return GeneratedNet(
        name=name,
        workflow=wf,
        specs=specs,
        has_diff_choice=state["diff"],
        tagged=tagged,
        choice_heads=heads,
    )


def standard_corpus(seed: int = 20260823, total: int = 200) -> list[GeneratedNet]:
    """The acceptance mix: half structure-passing (no differing-postset
    choices, sizes 2..6), half structure-failing (at least one, sizes
    4..8)."""
    rng = random.Random(seed)
    nets = []
    half = total // 2
    pass_sizes = (2, 3, 3, 4, 4, 5, 5, 6)
    fail_sizes = (4, 4, 5, 5, 6, 6, 7, 8)
    for i in range(half):
        size = pass_sizes[i % len(pass_sizes)]
        nets.append(
            random_workflow(rng, size, allow_diff=False, name=f"pass{i:03d}")
        )
    for i in range(total - half):
        size = fail_sizes[i % len(fail_sizes)]
        nets.append(
            random_workflow(rng, size, force_diff=True, name=f"fail{i:03d}")
        )
    return nets
