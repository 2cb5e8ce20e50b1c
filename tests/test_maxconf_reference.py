"""The ordered, lazy maximal-configuration search against the eager one it
replaced.

``tests/maxconf_reference.py`` keeps the eager search.  Both must give the
same configurations in the same order, on the corpus nets, the unfoldings
of the 200-net standard corpus, the seed-11 draws of 23 and 26 transitions
and random occurrence nets.  Both caps count search nodes, at least one per
configuration, so both must raise with a cap one below the number of
configurations and neither with the default cap; before it raises, the
lazy search must have yielded a prefix of the order.
"""

import random
from collections import Counter

import pytest

import orchnet.monotony as monotony
from orchnet import net_from_arcs, synthesize_counterexample, unfold
from orchnet.document import build, corpus_names, load_corpus
from orchnet.errors import CapExceededError
from orchnet.nets import iter_maximal_configurations, maximal_configurations, validate_occurrence_net

from .maxconf_reference import ref_maximal_configurations
from .randnets import random_workflow, standard_corpus


def assert_same_configurations(net) -> int:
    expected = ref_maximal_configurations(net)
    assert maximal_configurations(net) == expected
    cap = len(expected) - 1
    with pytest.raises(CapExceededError, match=f"maximal-configuration search exceeded cap {cap}"):
        ref_maximal_configurations(net, cap)
    yielded = []
    with pytest.raises(CapExceededError, match=f"maximal-configuration search exceeded cap {cap}"):
        for config in iter_maximal_configurations(net, cap):
            yielded.append(config)
    assert tuple(yielded) == expected[: len(yielded)]
    return len(expected)


def random_occurrence_net(rng):
    """Events added one by one, each consuming up to two existing places
    (rarely none) and producing up to two new ones; drawn until the
    occurrence-net conditions hold.  Ids are drawn so that id order is not
    the flow order."""
    while True:
        ids = iter(f"n{k:02d}" for k in rng.sample(range(100), 100))
        places = [next(ids) for _ in range(rng.randint(1, 3))]
        arcs = {}
        for _ in range(rng.randint(1, 12)):
            pre = rng.sample(places, min(len(places), rng.choice((0, 1, 1, 1, 2, 2))))
            post = [next(ids) for _ in range(rng.choice((0, 1, 1, 2)))]
            arcs[next(ids)] = (tuple(pre), tuple(post))
            places += post
        net = net_from_arcs(arcs, places=tuple(places))
        if validate_occurrence_net(net).ok:
            return net


def test_corpus_nets_match_the_reference():
    configs = [assert_same_configurations(build(load_corpus(name)).pre.net) for name in corpus_names()]
    assert configs == [2, 2, 2, 2]


def test_standard_corpus_unfoldings_match_the_reference():
    configs = Counter(
        assert_same_configurations(unfold(gen.workflow).unfolding) for gen in standard_corpus()
    )
    assert sum(configs.values()) == 200
    assert sum(n * k for n, k in configs.items()) == 424


def test_seed_11_draws_match_the_reference():
    configs = []
    for size in (23, 26):
        rng = random.Random(11)
        for _ in range(8):
            gen = random_workflow(rng, size, force_diff=True)
            configs.append(assert_same_configurations(unfold(gen.workflow).unfolding))
    assert configs == [36, 11, 12, 9, 96, 162, 20, 5, 72, 216, 24, 12, 18, 45, 20, 60]


def test_random_occurrence_nets_match_the_reference():
    rng = random.Random(6101)
    configs = Counter(assert_same_configurations(random_occurrence_net(rng)) for _ in range(2_000))
    assert sum(n * k for n, k in configs.items()) == 5_123
    assert (configs[1], max(configs)) == (687, 20)


def test_synthesis_draws_one_configuration_on_seed_11_draw_5_of_60(monkeypatch):
    # the eager search enumerated every maximal configuration of this
    # unfolding before synthesis kept the first finite one
    rng = random.Random(11)
    for _ in range(5):
        gen = random_workflow(rng, 60, force_diff=True)
    drawn = Counter()
    real = monotony.iter_maximal_configurations

    def counting(net, cap=100_000, forbidden=frozenset()):
        drawn["searches"] += 1
        for config in real(net, cap, forbidden):
            drawn["configurations"] += 1
            yield config

    monkeypatch.setattr(monotony, "iter_maximal_configurations", counting)
    outcome = synthesize_counterexample(gen.workflow, gen.specs, 0)
    assert outcome.verification.accepted
    assert drawn == Counter(searches=1, configurations=1)
