"""Counterexample synthesis against the whole-unfolding synthesis it
replaced, and the pruned maximal-configuration search against the plain one.

``tests/synthesis_reference.py`` keeps the replaced candidate loop,
``_attempt`` and ``_materialize``.  Both must give equal outcomes: the
same pair, residual, starved events, alternative and its latency, cluster
and verification, and the same ``lo`` and ``hi`` documents; where
synthesis fails, the same ``SynthesisError`` message.  The inputs are the
seed-11 draws of 10 to 60 transitions that unfold, the ``standard_corpus()``
workflows, the corpus nets, and a few draws under ``tie_break="all"``.

With a ``forbidden`` set, ``iter_maximal_configurations`` must yield
exactly the plain search's configurations that hold none of its events, in
the same order, and visit no more search nodes.
"""

import random

import pytest

from orchnet import unfold
from orchnet.document import build, corpus_names, document_from_orchnet, document_to_json, load_corpus
from orchnet.errors import CapExceededError, SynthesisError
from orchnet.monotony import structural_check, synthesize_counterexample
from orchnet.nets import iter_maximal_configurations

from .randnets import random_workflow, standard_corpus
from .synthesis_reference import ref_synthesize_counterexample
from .test_maxconf_reference import random_occurrence_net

SIZES = (10, 20, 30, 40, 50, 60)
DRAWS = 8


def summary(synthesize, carrier, specs, tie_break="lex"):
    """What a synthesis gives, as comparable values: its outcome's fields
    with lo and hi as documents, or its error message."""
    try:
        found = synthesize(carrier, specs, 0, tie_break)
    except SynthesisError as exc:
        return f"SynthesisError: {exc}"
    return (
        found.pair,
        found.pair_labels,
        found.residual_place,
        found.starved_events,
        found.cone_configuration,
        found.alternative,
        found.alternative_latency,
        found.cluster,
        found.verification,
        document_to_json(document_from_orchnet(found.lo)),
        document_to_json(document_from_orchnet(found.hi)),
    )


def assert_same_synthesis(carrier, specs, tie_break="lex") -> bool:
    """Equal outcomes on both paths; whether synthesis succeeded."""
    got = summary(synthesize_counterexample, carrier, specs, tie_break)
    assert got == summary(ref_synthesize_counterexample, carrier, specs, tie_break)
    return not isinstance(got, str)


def seed_11_draws(size: int):
    """The seed-11 draws of ``size`` transitions that unfold and fail the
    cluster condition."""
    rng = random.Random(11)
    for _ in range(DRAWS):
        gen = random_workflow(rng, size, force_diff=True)
        try:
            unfold(gen.workflow)
        except CapExceededError:
            continue
        if not structural_check(gen.workflow).satisfied:
            yield gen


@pytest.mark.parametrize("size", SIZES)
def test_seed_11_draws_match_the_reference(size):
    outcomes = [assert_same_synthesis(gen.workflow, gen.specs) for gen in seed_11_draws(size)]
    assert outcomes and any(outcomes)


def test_standard_corpus_matches_the_reference():
    outcomes = []
    for gen in standard_corpus():
        if not structural_check(gen.workflow).satisfied:
            outcomes.append(assert_same_synthesis(gen.workflow, gen.specs))
    assert len(outcomes) == 100 and all(outcomes)


def test_corpus_nets_match_the_reference():
    outcomes = {}
    for name in corpus_names():
        built = build(load_corpus(name))
        if not structural_check(built.carrier).satisfied:
            outcomes[name] = assert_same_synthesis(built.carrier, built.specs)
    assert outcomes == {"channel-grab": True, "branch-race": True, "overlap-cluster": False}


def test_tie_break_all_draws_match_the_reference():
    rng = random.Random(29)
    outcomes = []
    for k in range(8):
        gen = random_workflow(rng, size=4 + k % 3, force_diff=True, name=f"s{k}")
        outcomes.append(assert_same_synthesis(gen.workflow, gen.specs, "all"))
    for gen in seed_11_draws(20):
        outcomes.append(assert_same_synthesis(gen.workflow, gen.specs, "all"))
    assert any(outcomes)


def finishes(net, cap, forbidden) -> bool:
    try:
        for _ in iter_maximal_configurations(net, cap, forbidden):
            pass
    except CapExceededError:
        return False
    return True


def least_cap(net) -> int:
    """The least cap under which the plain search finishes: the number of
    nodes it visits, at least one per configuration."""
    lo = hi = len(list(iter_maximal_configurations(net)))
    while not finishes(net, hi, frozenset()):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if finishes(net, mid, frozenset()):
            hi = mid
        else:
            lo = mid + 1
    return lo


def assert_pruned_search(net, rng) -> None:
    events = sorted(net.transitions)
    plain = list(iter_maximal_configurations(net))
    cap = least_cap(net)
    for _ in range(3):
        forbidden = frozenset(rng.sample(events, min(len(events), rng.choice((1, 1, 2, 3)))))
        pruned = list(iter_maximal_configurations(net, forbidden=forbidden))
        assert pruned == [c for c in plain if forbidden.isdisjoint(c)]
        # it visits no more nodes than the plain search
        assert finishes(net, cap, forbidden)


def test_forbidden_search_on_random_occurrence_nets():
    rng = random.Random(6101)
    for _ in range(400):
        net = random_occurrence_net(rng)
        if net.transitions:
            assert_pruned_search(net, rng)


def test_forbidden_search_on_seed_11_unfoldings():
    rng = random.Random(7)
    for gen in seed_11_draws(23):
        assert_pruned_search(unfold(gen.workflow).unfolding, rng)

