"""The one-pass unfolder against the fixpoint it replaced.

``tests/unfold_reference.py`` keeps the fixpoint.  Both must give the same
``Net`` and the same morphism, names included: on the 200-net corpus, on
seeded random workflows of 10-60 transitions, and on raw carriers.
The reference re-tests every combination in every round, so only draws
whose reference unfolding has at most ``REFERENCE_EVENTS`` events are
compared.
"""

import random

import pytest

from orchnet import net_from_arcs, unfold

from .randnets import random_shape, standard_corpus
from .unfold_reference import ref_unfold

REFERENCE_EVENTS = 500


def assert_same_unfolding(carrier, ref) -> None:
    result = unfold(carrier)
    assert result.unfolding == ref.unfolding
    assert result.morphism == ref.morphism


def test_corpus_unfoldings_match_the_reference():
    for gen in standard_corpus():
        assert_same_unfolding(gen.workflow, ref_unfold(gen.workflow))


def test_random_workflows_match_the_reference():
    rng = random.Random(20261018)
    draws = compared = 0
    for i in range(1_000):
        size = 10 + i % 51
        wf, _ = random_shape(rng, size, force_diff=i % 2 == 0)
        draws += 1
        ref = ref_unfold(wf, event_limit=REFERENCE_EVENTS)
        if ref is None:
            continue
        assert_same_unfolding(wf, ref)
        compared += 1
    print(f"compared {compared} of {draws} draws with the reference")
    assert compared >= 600


# a and b each put a token on p: two concurrent p-conditions, each raced
# for by c and d, then joined pairwise by j
UNSAFE = {
    "a": (("s1",), ("p",)),
    "b": (("s2",), ("p",)),
    "c": (("p",), ("x",)),
    "d": (("p",), ("y",)),
    "j": (("x", "y"), ("z",)),
}

# u and t both consume p, and u makes q, which t needs too.  The choice map
# of the p-condition is empty, but the q-condition's names it: q lies after
# p, so {p, q} is no co-set and t never fires
CAUSED = {
    "u": (("p",), ("q",)),
    "t": (("p", "q"), ("r",)),
}


@pytest.mark.parametrize(
    "arcs, copies",
    [
        (UNSAFE, ["a", "b", "c", "c", "d", "d", "j", "j"]),
        (CAUSED, ["u"]),
    ],
    ids=["unsafe", "caused"],
)
def test_raw_carriers_match_the_reference(arcs, copies):
    net = net_from_arcs(arcs)
    result = unfold(net)
    assert_same_unfolding(net, ref_unfold(net))
    assert sorted(result.morphism[e] for e in result.unfolding.transitions) == copies
