"""``is_sound`` and ``clusters`` against the code they replaced.

``tests/soundness_reference.py`` keeps the soundness check with a
``list.pop(0)`` queue, every transition tried at every marking and a
``while changed`` fixpoint; ``tests/clusters_reference.py`` keeps the
union-find partition.  The verdicts must agree in status, in every issue
and its order, and in ``markings_explored``, on sound random workflows, on
the same nets with an arc added or removed (unsound, unsafe, cyclic, with
presetless transitions), and at marking caps that cut the walk short.  The
clusters must be the same tuple, in the same order, on those nets, on the
corpus nets and on their unfoldings.
"""

import random

from orchnet import build, loads, unfold
from orchnet.document import corpus_text
from orchnet.nets import WorkflowNet, clusters, is_sound, net_from_arcs

from .clusters_reference import ref_clusters
from .randnets import random_shape, standard_corpus
from .soundness_reference import ref_is_sound

CORPUS = ("branch-race", "channel-grab", "choice-join", "overlap-cluster")
# a presetless transition can double the marking graph; past this many
# markings both sides stop, and say so at the same point
CAP = 2_000


def _perturbed(rng: random.Random, wf: WorkflowNet) -> WorkflowNet:
    """``wf`` with one to three arcs added or removed, or a presetless
    transition added; built without ``from_net``, so anything goes."""
    net = wf.net
    arcs = {t: [set(net.preset[t]), set(net.postset[t])] for t in sorted(net.transitions)}
    places = sorted(net.places)
    for _ in range(rng.randint(1, 3)):
        t = rng.choice(sorted(arcs))
        move = rng.randrange(5)
        if move == 4:
            arcs[f"z{len(arcs)}"] = [set(), {rng.choice(places)}]
        elif move >= 2:
            arcs[t][move - 2].add(rng.choice(places))
        else:
            side = arcs[t][move]
            if side:
                side.discard(rng.choice(sorted(side)))
    net = net_from_arcs(arcs, places=places, marking=[wf.source])
    return WorkflowNet(net=net, source=wf.source, sink=wf.sink)


def _draws():
    """Sound random workflows, each followed by two perturbed copies."""
    rng = random.Random(20261019)
    for i in range(150):
        wf, _ = random_shape(rng, 4 + i % 13, force_diff=i % 3 == 0)
        yield wf
        yield _perturbed(rng, wf)
        yield _perturbed(rng, wf)


def test_soundness_matches_the_reference():
    statuses = set()
    kinds = set()
    for wf in _draws():
        got = is_sound(wf, marking_cap=CAP)
        assert got == ref_is_sound(wf, marking_cap=CAP)
        statuses.add(got.status)
        kinds.update(i.kind for i in got.issues)
    assert statuses == {"sound", "unsound", "undecided"}
    assert kinds == {"not_safe", "cannot_complete", "improper_completion", "dead_transition", "cap"}


def test_soundness_matches_the_reference_under_a_cap():
    cut = 0
    for n, wf in enumerate(_draws()):
        if n % 5:
            continue
        explored = ref_is_sound(wf, marking_cap=CAP).markings_explored
        for cap in sorted({1, 2, explored // 2, explored - 1, explored}):
            got = is_sound(wf, marking_cap=cap)
            assert got == ref_is_sound(wf, marking_cap=cap)
            cut += got.status == "undecided"
    assert cut >= 100


def _nets():
    for gen in standard_corpus(total=40):
        yield gen.workflow.net
        yield unfold(gen.workflow).unfolding
    for name in CORPUS:
        built = build(loads(corpus_text(name)))
        yield built.carrier_net
        yield built.unfolding.unfolding
    for i, wf in enumerate(_draws()):
        yield wf.net
        if i % 3 == 0 and i < 90:
            yield unfold(wf).unfolding


def test_clusters_match_the_reference():
    count = 0
    for net in _nets():
        assert clusters(net) == ref_clusters(net)
        count += 1
    assert count > 400
