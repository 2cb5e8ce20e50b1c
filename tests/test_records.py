"""The tuple records against the frozen dataclasses they replaced.

``PlaceDecl``, ``TransitionDecl`` and ``LatencySpec`` are
``typing.NamedTuple``s; ``tests/record_reference.py`` keeps them as the
frozen dataclasses they were.  On the four corpus nets and the 400
documents of ``tests/report_corpus.py``, every record the parser builds
must print, hash and compare as its reference does: the same ``repr``, the
same hash, and the same partition into equal records, across all the
documents at once.  Field names and defaults, the latency methods and
``_replace`` against ``dataclasses.replace`` are compared too.
"""

from __future__ import annotations

import dataclasses

import pytest

from orchnet.document import PlaceDecl, TransitionDecl, corpus_names, corpus_text, loads
from orchnet.errors import EvaluationError
from orchnet.specs import LatencySpec

from . import record_reference as reference
from .test_document_reference import CORPUS_TEXTS

PAIRS = (
    (PlaceDecl, reference.PlaceDecl),
    (TransitionDecl, reference.TransitionDecl),
    (LatencySpec, reference.LatencySpec),
)


def as_reference(record):
    """The reference record with the same fields, nested records included."""
    for new, ref in PAIRS:
        if type(record) is new:
            return ref(*map(as_reference, record))
    return record


def documents():
    texts = [corpus_text(name) for name in corpus_names()] + CORPUS_TEXTS
    assert len(texts) == 404
    return [loads(text) for text in texts]


def records(doc) -> list:
    found = [*doc.places, *doc.transitions]
    found += [t.latency for t in doc.transitions]
    found += [p.initial_date for p in doc.places if p.initial_date is not None]
    return found


@pytest.mark.parametrize("new, ref", PAIRS, ids=lambda c: c.__name__)
def test_fields_and_defaults_are_the_dataclass_ones(new, ref):
    fields = dataclasses.fields(ref)
    assert new._fields == tuple(f.name for f in fields)
    assert new._field_defaults == {
        f.name: f.default for f in fields if f.default is not dataclasses.MISSING
    }
    assert new.__name__ == ref.__name__


def test_records_print_hash_and_compare_as_the_dataclasses_do():
    docs = documents()
    classes_seen = set()
    new_groups: dict = {}
    ref_groups: dict = {}
    for i, doc in enumerate(docs):
        for j, record in enumerate(records(doc)):
            ref = as_reference(record)
            assert repr(record) == repr(ref)
            assert hash(record) == hash(ref)
            for name in record._fields:
                assert as_reference(getattr(record, name)) == getattr(ref, name)
            new_groups.setdefault(record, []).append((i, j))
            ref_groups.setdefault(ref, []).append((i, j))
            classes_seen.add(type(record))
    assert classes_seen == {new for new, _ in PAIRS}
    # equal records are grouped alike: == agrees on every pair of records
    assert sorted(new_groups.values()) == sorted(ref_groups.values())
    # specs repeat across documents, declarations do not
    assert len(new_groups) < sum(map(len, new_groups.values()))


def _outcome(call):
    try:
        return call()
    except EvaluationError as exc:
        return str(exc)


def test_latency_methods_and_replace_match_the_dataclasses():
    for doc in documents():
        for spec in records(doc):
            ref = as_reference(spec)
            if type(spec) is LatencySpec:
                assert spec.is_tabular() == ref.is_tabular()
                for omega in range(-1, doc.omega_count + 1):
                    assert _outcome(lambda: spec.value_at(omega)) == _outcome(lambda: ref.value_at(omega))
                assert repr(spec._replace(kind="infinite")) == repr(dataclasses.replace(ref, kind="infinite"))
            else:
                changed = spec._replace(id="renamed")
                assert repr(changed) == repr(dataclasses.replace(ref, id="renamed"))
