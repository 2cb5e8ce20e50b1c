"""The document parser against the reference it replaced.

``document_from_json`` formats a JSON path only when it records a
problem, parses per-scenario tables through the memoized ``parse_date``
and finds unknown keys with key views.  ``tests/document_reference.py``
keeps the parser as it was.  On every input both must give equal
``NetDocument``s, or the same problem list, messages and order included:
the corpus nets, the 400 documents of ``tests/report_corpus.py`` and
seeded mutants of them.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from orchnet.document import corpus_names, corpus_text, document_from_json, dumps
from orchnet.errors import DocumentError
from . import document_reference as reference
from .randnets import standard_corpus
from .report_corpus import occurrence_twin, workflow_document

MUTANTS = 4000


def _outcome(parse, obj):
    try:
        return "document", parse(obj)
    except DocumentError as exc:
        return "problems", exc.problems


def _assert_same(obj) -> str:
    expected = _outcome(reference.document_from_json, obj)
    got = _outcome(document_from_json, obj)
    assert got == expected
    return got[0]


def _corpus_texts() -> list[str]:
    texts = []
    for gen in standard_corpus():
        wf = workflow_document(gen)
        texts += [dumps(wf), dumps(occurrence_twin(wf))]
    return texts


CORPUS_TEXTS = _corpus_texts()


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_nets_parse_as_the_reference_parses_them(name):
    assert _assert_same(json.loads(corpus_text(name))) == "document"


def test_the_report_corpus_documents_parse_as_the_reference_parses_them():
    assert len(CORPUS_TEXTS) == 400
    for text in CORPUS_TEXTS:
        assert _assert_same(json.loads(text)) == "document"


# ---------------------------------------------------------------------------
# Mutants: each takes one corpus document and applies one to three of the
# operators below.  An operator edits the JSON object in place.

ODD_VALUES = (None, True, False, 0, 1, -1, 2.5, "", "x", [], [1], ["p"], {}, {"kind": "const"})
BAD_DATES = ("-1", "-1/2", "abc", "1/0", "", " ", "1e3", " 2 ", "0x10", "inf ", "-inf", "nan", "1_0")
DATES = ("0", "1", "2", "5", "1/2", "3.5", "inf", "7/3")


def _date(rng: random.Random) -> object:
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(BAD_DATES)
    if roll < 0.2:
        return rng.choice(ODD_VALUES)
    return rng.choice(DATES)


def _expr(rng: random.Random, depth: int = 0) -> object:
    op = rng.choice(("const", "input", "input", "add", "mul", "max", "min", "pow"))
    node: dict = {"op": op}
    if op == "const":
        node["value"] = _date(rng)
    elif op == "input":
        node["index"] = rng.choice((0, 0, 1, 2, 5, -1, "0"))
    elif op != "pow" or rng.random() < 0.5:
        if depth < 3 and rng.random() < 0.9:
            node["args"] = [_expr(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return node if rng.random() > 0.03 else rng.choice(ODD_VALUES)


def _latency(rng: random.Random, omegas: int) -> object:
    kind = rng.choice(("const", "per_omega", "per_omega", "infinite", "expr", "mystery"))
    if kind == "const":
        return {"kind": "const", "value": _date(rng)}
    if kind == "per_omega":
        size = omegas + rng.choice((0, 0, 0, -1, 1))
        return {"kind": "per_omega", "values": [_date(rng) for _ in range(max(size, 0))]}
    if kind == "expr":
        return {"kind": "expr", "expr": _expr(rng)}
    return {"kind": kind} if rng.random() > 0.1 else rng.choice(ODD_VALUES)


def _value(rng: random.Random, depth: int = 0) -> object:
    kind = rng.choice(("atom", "num", "tuple", "blob"))
    if kind == "atom":
        return {"kind": "atom", "value": rng.choice(("a", "b", 3))}
    if kind == "num":
        return {"kind": "num", "value": rng.choice(("1", "2.5", "-3", "x", 4))}
    if kind == "tuple" and depth < 2:
        return {"kind": "tuple", "items": [_value(rng, depth + 1) for _ in range(rng.randint(0, 2))]}
    return {"kind": kind} if rng.random() > 0.2 else rng.choice(ODD_VALUES)


def _value_fn(rng: random.Random, omegas: int) -> object:
    kind = rng.choice(("const", "select", "tuple_of_inputs", "sum", "max", "per_omega", "blend"))
    if kind == "const":
        return {"kind": "const", "value": _value(rng)}
    if kind == "select":
        return {"kind": "select", "index": rng.choice((0, 1, 3, -1, "0"))}
    if kind == "per_omega":
        size = omegas + rng.choice((0, 0, -1, 1))
        return {"kind": "per_omega", "values": [_value(rng) for _ in range(max(size, 0))]}
    return {"kind": kind}


def _operand(rng: random.Random) -> object:
    if rng.random() < 0.5:
        return {"kind": "select", "index": rng.choice((0, 1, 2, 4, -1, "1"))}
    if rng.random() < 0.9:
        return {"kind": "const", "value": _value(rng)}
    return rng.choice(({"kind": "other"}, {}, None, "select"))


def _guard(rng: random.Random) -> object:
    return {"op": rng.choice(("eq", "lt", "leq", "xor")), "left": _operand(rng), "right": _operand(rng)}


def _entries(doc: dict, key: str) -> list:
    entries = doc.get(key)
    return [e for e in entries if isinstance(e, dict)] if isinstance(entries, list) else []


def _omegas(doc: dict) -> int:
    n = doc.get("omega_count", 1)
    return n if isinstance(n, int) and n > 0 else 1


def drop_key(rng, doc):
    dicts = [doc, *_entries(doc, "places"), *_entries(doc, "transitions")]
    dicts += [t[k] for t in _entries(doc, "transitions") for k in ("latency", "value_fn", "guard")
              if isinstance(t.get(k), dict)]
    target = rng.choice([d for d in dicts if d] or [doc])
    if target:
        del target[rng.choice(sorted(target))]


def unknown_key(rng, doc):
    targets = [doc, *_entries(doc, "places"), *_entries(doc, "transitions")]
    if isinstance(doc.get("flags"), dict):
        targets.append(doc["flags"])
    for _ in range(rng.randint(1, 2)):
        rng.choice(targets)[rng.choice(("zeta", "alpha", "Id", "pre_", "initial", "flags2"))] = 1


def wrong_type(rng, doc):
    sites = [(doc, k) for k in doc]
    for key in ("places", "transitions"):
        for entry in _entries(doc, key):
            sites += [(entry, k) for k in entry]
    if isinstance(doc.get("flags"), dict):
        sites += [(doc["flags"], k) for k in doc["flags"]]
    if sites:
        owner, key = rng.choice(sites)
        owner[key] = rng.choice(ODD_VALUES)


def bad_date(rng, doc):
    sites = []
    for t in _entries(doc, "transitions"):
        lat = t.get("latency")
        if isinstance(lat, dict) and lat.get("kind") == "const":
            sites.append((lat, "value"))
        elif isinstance(lat, dict) and isinstance(lat.get("values"), list):
            sites += [(lat["values"], i) for i in range(len(lat["values"]))]
    for grids in ("grids", "place_grids"):
        if isinstance(doc.get(grids), dict):
            for values in doc[grids].values():
                if isinstance(values, list):
                    sites += [(values, i) for i in range(len(values))]
    for p in _entries(doc, "places"):
        if isinstance(p.get("initial_date"), dict) and "value" in p["initial_date"]:
            sites.append((p["initial_date"], "value"))
    if sites:
        owner, key = rng.choice(sites)
        owner[key] = rng.choice(BAD_DATES + (3, None))


def per_omega(rng, doc):
    if rng.random() < 0.5:
        doc["omega_count"] = rng.randint(1, 3)
    for t in rng.sample(_entries(doc, "transitions"), min(3, len(_entries(doc, "transitions")))):
        size = _omegas(doc) + rng.choice((0, 0, 0, -1, 1))
        t["latency"] = {"kind": "per_omega", "values": [rng.choice(DATES) for _ in range(max(size, 0))]}


def duplicate_id(rng, doc):
    key = rng.choice(("places", "transitions"))
    entries = _entries(doc, key)
    if len(entries) >= 2:
        if rng.random() < 0.5:
            doc[key].append(json.loads(json.dumps(rng.choice(entries))))
        else:
            a, b = rng.sample(entries, 2)
            a["id"] = b.get("id")
    elif entries:
        doc["transitions" if key == "places" else "places"].append({"id": entries[0].get("id")})


def initial_attributes(rng, doc):
    for p in rng.sample(_entries(doc, "places"), min(2, len(_entries(doc, "places")))):
        if rng.random() < 0.6:
            p["initial_date"] = _latency(rng, _omegas(doc))
        if rng.random() < 0.6:
            p["initial_value"] = _value(rng)


def expr_latency(rng, doc):
    for t in rng.sample(_entries(doc, "transitions"), min(2, len(_entries(doc, "transitions")))):
        t["latency"] = {"kind": "expr", "expr": _expr(rng)}


def functions(rng, doc):
    for t in rng.sample(_entries(doc, "transitions"), min(2, len(_entries(doc, "transitions")))):
        roll = rng.random()
        if roll < 0.4:
            t["value_fn"] = _value_fn(rng, _omegas(doc))
        elif roll < 0.8:
            t["guard"] = _guard(rng)
        else:
            t["latency"] = _latency(rng, _omegas(doc))


def arcs(rng, doc):
    transitions = _entries(doc, "transitions")
    if not transitions:
        return
    t = rng.choice(transitions)
    side = rng.choice(("pre", "post"))
    ids = t.get(side)
    roll = rng.random()
    if isinstance(ids, list) and ids and roll < 0.4:
        ids.append(rng.choice(ids))
    elif isinstance(ids, list) and roll < 0.6:
        ids.insert(0, rng.choice((3, None, ["p"])))
    elif isinstance(ids, list) and roll < 0.85:
        ids.append(rng.choice(("nowhere", "t1", "p0")))
    else:
        t[side] = rng.choice(("p", None, {"p": 1}))


def drop_entries(rng, doc):
    key = rng.choice(("places", "transitions"))
    entries = doc.get(key)
    if isinstance(entries, list) and entries:
        del entries[rng.randrange(len(entries))]


def latency_class(rng, doc):
    for t in rng.sample(_entries(doc, "transitions"), min(3, len(_entries(doc, "transitions")))):
        t["latency_class"] = rng.choice(("shared", "shared", "other", 7))
        if rng.random() < 0.3:
            t["latency"] = {"kind": "const", "value": rng.choice(DATES)}


def grids(rng, doc):
    key = rng.choice(("grids", "place_grids"))
    table = doc.get(key)
    if not isinstance(table, dict):
        table = doc[key] = {}
    name = rng.choice(["nowhere", *(e.get("id") for e in _entries(doc, "transitions" if key == "grids" else "places"))])
    if not isinstance(name, str):
        return
    table[name] = rng.choice((["0", "1"], [], ["1", "1"], "0", [rng.choice(BAD_DATES)], [2]))
    if rng.random() < 0.1:
        doc[key] = rng.choice(ODD_VALUES)


def header(rng, doc):
    key = rng.choice(("format_version", "kind", "omega_count", "flags"))
    doc[key] = rng.choice(ODD_VALUES + (2, "workflow", "occurrence", {"upward_closed": 1}, {"x": True}))


OPERATORS = (
    drop_key, unknown_key, wrong_type, bad_date, per_omega, duplicate_id, initial_attributes,
    expr_latency, functions, arcs, drop_entries, latency_class, grids, header,
)


def test_seeded_mutants_parse_as_the_reference_parses_them():
    rng = random.Random(20260823)
    texts = CORPUS_TEXTS + [corpus_text(name) for name in corpus_names()]
    outcomes: Counter = Counter()
    problems_by_operator: Counter = Counter()
    for _ in range(MUTANTS):
        doc = json.loads(rng.choice(texts))
        applied = rng.sample(OPERATORS, rng.randint(1, 3))
        for operator in applied:
            operator(rng, doc)
        outcome = _assert_same(doc)
        outcomes[outcome] += 1
        if outcome == "problems":
            problems_by_operator.update(op.__name__ for op in applied)
    # most mutants are rejected, some still parse, and every operator is
    # behind some rejected mutant
    assert outcomes["problems"] > MUTANTS // 2 and outcomes["document"] >= 100, outcomes
    assert all(problems_by_operator[op.__name__] > 50 for op in OPERATORS), problems_by_operator
