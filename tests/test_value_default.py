"""A transition without a value function stores none: the package against
the explicit default it replaced.

``tests/value_default_reference.py`` keeps the family in which every event
stores ``const_value_fn(atom(phi[e]))`` where its carrier transition
declares nothing, and the serialiser that compared each value function
with that default.  On every document the package's family must race,
evaluate and serialise as that one does: the workflow documents of
``tests/report_corpus.py`` (tagged nets give their choice heads the
default), their occurrence twins, the twins stripped of every value
function, and the corpus nets.
"""

from __future__ import annotations

import random
from dataclasses import replace

from orchnet.attributes import atom
from orchnet.document import (
    NetDocument,
    build,
    corpus_names,
    document_from_orchnet,
    document_to_json,
    load_corpus,
)
from orchnet.errors import CapExceededError
from orchnet.timed import PreOrchNet, eval_dates, execute
from . import value_default_reference as reference
from .randnets import standard_corpus
from .report_corpus import occurrence_twin, workflow_document

MEMBERS = 6  # grid members per document besides the baseline


def _bare(doc: NetDocument) -> NetDocument:
    """``doc`` with every value function left out."""
    return replace(doc, transitions=tuple(t._replace(value_fn=None) for t in doc.transitions))


def _documents() -> list[tuple[str, NetDocument]]:
    docs = [(f"corpus:{name}", load_corpus(name)) for name in corpus_names()]
    for gen in standard_corpus():
        wf = workflow_document(gen)
        twin = occurrence_twin(wf)
        docs += [(gen.name, wf), (f"{gen.name}-occurrence", twin), (f"{gen.name}-bare", _bare(twin))]
    return docs


DOCUMENTS = _documents()


def _races(pre: PreOrchNet, idx: int, tie: str):
    try:
        return pre.kernel.race(idx, 0, tie, values=True)
    except CapExceededError as exc:
        return str(exc)


def _assert_same_family(new: PreOrchNet, old: PreOrchNet, rng: random.Random) -> None:
    size = new.grid_index.size
    assert old.grid_index.size == size
    for idx in sorted({0, size - 1, *(rng.randrange(size) for _ in range(MEMBERS))}):
        member = new.grid_index.member(idx)
        got, want = new.instantiate(member), old.instantiate(member)
        run = execute(got, 0)
        assert run == execute(want, 0)
        assert eval_dates(got, 0, run.occurring) == eval_dates(want, 0, run.occurring)
        for tie in ("lex", "all"):
            assert _races(new, idx, tie) == _races(old, idx, tie)
        assert document_to_json(document_from_orchnet(got)) == document_to_json(
            reference.document_from_orchnet(want)
        )


def test_the_documents_cover_every_kind_of_default():
    kinds = {doc.kind for _, doc in DOCUMENTS}
    assert kinds == {"workflow", "occurrence"}
    tagged = [g for g in standard_corpus() if g.tagged and g.choice_heads]
    assert tagged
    # a tagged workflow's choice heads declare nothing, and their events
    # are copies named apart from them
    wf = build(workflow_document(tagged[0]))
    heads = tagged[0].choice_heads
    assert not heads & wf.specs.value_fn.keys()
    assert any(e != wf.unfolding.morphism.node_map[e] for e in wf.pre.net.transitions)


def test_the_family_races_and_serialises_as_the_explicit_default():
    rng = random.Random(0)
    for name, doc in DOCUMENTS:
        built = build(doc)
        new, old = built.pre, reference.explicit_family(built)
        _assert_same_family(new, old, rng)
        phi = built.unfolding.morphism.node_map
        declared = built.specs.value_fn
        # only declared functions and the copies' shared defaults are stored
        assert declared.keys() == {t.id for t in doc.transitions if t.value_fn is not None}
        assert new.value_fn.keys() == {
            e for e in new.net.transitions if phi[e] in declared or e != phi[e]
        }
        defaults: dict = {}
        for e, fn in new.value_fn.items():
            if phi[e] not in declared:
                assert fn.const == atom(phi[e]), name
                assert defaults.setdefault(phi[e], fn) is fn, name
