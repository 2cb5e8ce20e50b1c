"""Document schema: parsing, problem collection, serialization, corpus."""

import json

import pytest

from orchnet import (
    DocumentError,
    build,
    document_from_orchnet,
    dumps,
    end_to_end,
    load,
    load_corpus,
    loads,
    num,
)
from orchnet import document
from orchnet.document import corpus_names, corpus_text

CORPUS = ("branch-race", "channel-grab", "choice-join", "overlap-cluster")


def _minimal(**overrides):
    doc = {
        "format_version": 1,
        "kind": "occurrence",
        "omega_count": 1,
        "places": [{"id": "p"}, {"id": "q"}],
        "transitions": [
            {"id": "t", "pre": ["p"], "post": ["q"], "latency": {"kind": "const", "value": "1"}}
        ],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Parsing and problem collection


def test_minimal_document_parses():
    doc = loads(json.dumps(_minimal()))
    assert doc.kind == "occurrence"
    assert [p.id for p in doc.places] == ["p", "q"]
    assert doc.transitions[0].latency.value_at(0).is_finite


def test_all_problems_are_collected_in_one_error():
    bad = {
        "format_version": 99,
        "kind": "bogus",
        "omega_count": 0,
        "surprise": True,
        "places": [{"id": "p"}, {"id": "p"}],
        "transitions": [
            {
                "id": "t",
                "pre": ["p", "ghost"],
                "post": [],
                "latency": {"kind": "const", "value": "x"},
                "value_fn": {"kind": "select", "index": 7},
            }
        ],
        "grids": {"t": ["1", "1"]},
    }
    with pytest.raises(DocumentError) as err:
        loads(json.dumps(bad))
    text = "\n".join(err.value.problems)
    assert "format_version" in text
    assert "kind" in text
    assert "omega_count" in text
    assert "unknown top-level key 'surprise'" in text
    assert "places[1].id: duplicate" in text
    assert "transitions[0].latency.value" in text
    assert "select 7 out of range" in text
    assert "unknown place 'ghost'" in text
    assert "grids.t: duplicate grid values" in text
    assert len(err.value.problems) >= 9


def test_per_omega_table_must_match_omega_count():
    doc = _minimal(omega_count=2)
    doc["transitions"][0]["latency"] = {"kind": "per_omega", "values": ["1"]}
    with pytest.raises(DocumentError, match="must list 2 entries"):
        loads(json.dumps(doc))


def test_grid_dates_are_strings():
    doc = _minimal(grids={"t": [1]})
    with pytest.raises(DocumentError, match="decimal strings"):
        loads(json.dumps(doc))


def test_guard_select_arity_is_checked():
    doc = _minimal()
    doc["transitions"][0]["guard"] = {
        "op": "eq",
        "left": {"kind": "select", "index": 3},
        "right": {"kind": "const", "value": {"kind": "atom", "value": "p"}},
    }
    with pytest.raises(DocumentError, match=r"guard.left: select 3 out of range"):
        loads(json.dumps(doc))


def test_expression_inputs_are_checked_against_the_preset():
    doc = _minimal()
    doc["transitions"][0]["latency"] = {
        "kind": "expr",
        "expr": {"op": "add", "args": [{"op": "input", "index": 0}, {"op": "input", "index": 3}]},
    }
    with pytest.raises(DocumentError) as err:
        loads(json.dumps(doc))
    assert err.value.problems == [
        "transitions[0].latency.expr.args[1].index: input 3 out of range for 1 inputs"
    ]


def _with_boolean(site):
    doc = _minimal()
    t = doc["transitions"][0]
    if site in ("format_version", "omega_count"):
        doc[site] = True
    elif site == "value_fn":
        t["value_fn"] = {"kind": "select", "index": False}
    elif site == "guard":
        t["guard"] = {
            "op": "eq",
            "left": {"kind": "select", "index": False},
            "right": {"kind": "const", "value": {"kind": "atom", "value": "p"}},
        }
    else:
        t["latency"] = {"kind": "expr", "expr": {"op": "input", "index": False}}
    return doc


_BOOLEAN_PROBLEMS = {
    "format_version": "format_version: expected 1, got True",
    "omega_count": "omega_count: expected a positive integer, got True",
    "value_fn": "transitions[0].value_fn.index: select index must be a nonnegative integer",
    "guard": "transitions[0].guard.left.index: select index must be a nonnegative integer",
    "latency": "transitions[0].latency.expr.index: input index must be a nonnegative integer",
}


@pytest.mark.parametrize("site", sorted(_BOOLEAN_PROBLEMS))
def test_a_json_boolean_is_not_an_integer(site):
    # True == 1 and False == 0 in Python, so an isinstance(x, int) test
    # would read them as integers and dumps would write them back as booleans
    with pytest.raises(DocumentError) as err:
        loads(json.dumps(_with_boolean(site)))
    assert err.value.problems == [_BOOLEAN_PROBLEMS[site]]


def test_an_initial_date_cannot_be_an_expression():
    doc = _minimal()
    doc["places"][0]["initial_date"] = {"kind": "expr", "expr": {"op": "const", "value": "1"}}
    with pytest.raises(DocumentError) as err:
        loads(json.dumps(doc))
    assert err.value.problems == [
        "places[0].initial_date.kind: an initial date cannot be an expression (it has no inputs)"
    ]


def test_mismatched_class_latencies_are_rejected():
    doc = _minimal()
    doc["places"].append({"id": "r"})
    doc["transitions"] = [
        {"id": "t", "pre": ["p"], "post": ["q"], "latency": {"kind": "const", "value": "1"},
         "latency_class": "shared"},
        {"id": "u", "pre": ["p"], "post": ["r"], "latency": {"kind": "const", "value": "2"},
         "latency_class": "shared"},
    ]
    with pytest.raises(DocumentError, match="declare different latencies"):
        loads(json.dumps(doc))


def test_grid_for_unknown_class_is_rejected():
    with pytest.raises(DocumentError, match="grids.nope: no transition"):
        loads(json.dumps(_minimal(grids={"nope": ["1"]})))


def test_invalid_json_is_a_document_error():
    with pytest.raises(DocumentError, match="invalid JSON"):
        loads("{not json")


def test_recursion_while_reading_the_schema_is_a_document_error(monkeypatch):
    # json.loads overflowing is covered through the CLI; this is the schema
    # walk, which recurses into nested tuple values
    def too_deep(obj):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(document, "document_from_json", too_deep)
    with pytest.raises(DocumentError, match="nested too deeply"):
        loads(json.dumps(_minimal()))


def test_missing_file_is_a_document_error(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load(str(tmp_path / "absent.net"))


# ---------------------------------------------------------------------------
# Building


def test_non_occurrence_structure_is_rejected_at_build():
    doc = _minimal()
    doc["transitions"].append(
        {"id": "u", "pre": ["q"], "post": ["p"], "latency": {"kind": "const", "value": "1"}}
    )
    with pytest.raises(DocumentError, match="net:"):
        build(loads(json.dumps(doc)))


def test_unsound_workflow_is_rejected_at_build():
    doc = {
        "format_version": 1,
        "kind": "workflow",
        "omega_count": 1,
        "places": [{"id": "i"}, {"id": "c"}, {"id": "p1"}, {"id": "p2"}, {"id": "o"}],
        "transitions": [
            {"id": "s", "pre": ["i"], "post": ["c"], "latency": {"kind": "const", "value": "1"}},
            {"id": "a", "pre": ["c"], "post": ["p1"], "latency": {"kind": "const", "value": "1"}},
            {"id": "b", "pre": ["c"], "post": ["p2"], "latency": {"kind": "const", "value": "1"}},
            {"id": "j", "pre": ["p1", "p2"], "post": ["o"], "latency": {"kind": "const", "value": "1"}},
        ],
    }
    with pytest.raises(DocumentError, match="workflow: .*sound"):
        build(loads(json.dumps(doc)))


def test_initial_attributes_belong_on_minimal_places():
    doc = _minimal()
    doc["places"][1]["initial_date"] = {"kind": "const", "value": "0"}
    with pytest.raises(DocumentError, match="non-minimal"):
        build(loads(json.dumps(doc)))


def test_place_grid_must_target_a_minimal_place():
    doc = _minimal(place_grids={"q": ["0", "1"]})
    with pytest.raises(DocumentError, match="place_grids.q: not a minimal place"):
        build(loads(json.dumps(doc)))


def test_an_ordering_guard_against_an_atom_is_rejected_at_build():
    doc = _minimal()
    atom_z = {"kind": "const", "value": {"kind": "atom", "value": "z"}}
    doc["transitions"][0]["guard"] = {"op": "lt", "left": {"kind": "select", "index": 0}, "right": atom_z}
    parsed = loads(json.dumps(doc))  # well-formed: the kinds are a property of the net
    with pytest.raises(DocumentError) as err:
        build(parsed)
    assert err.value.problems == ["transitions[0].guard.right.value: guard lt needs a number, got z"]
    # eq compares any two values, and a numeric constant is fine for leq
    for op, right in (("eq", atom_z), ("leq", {"kind": "const", "value": {"kind": "num", "value": "1"}})):
        doc["transitions"][0]["guard"] = {"op": op, "left": atom_z, "right": right}
        if op == "eq":
            build(loads(json.dumps(doc)))
        else:
            with pytest.raises(DocumentError) as err:
                build(loads(json.dumps(doc)))
            assert err.value.problems == ["transitions[0].guard.left.value: guard leq needs a number, got z"]


def test_an_ordering_guard_that_selects_an_unvalued_minimal_place_is_rejected_at_build():
    doc = _minimal()
    one = {"kind": "const", "value": {"kind": "num", "value": "1"}}
    doc["transitions"][0]["guard"] = {"op": "lt", "left": {"kind": "select", "index": 0}, "right": one}
    parsed = loads(json.dumps(doc))  # well-formed: the kinds are a property of the net
    with pytest.raises(DocumentError) as err:
        build(parsed)
    assert err.value.problems == [
        "transitions[0].guard.left.index: select 0 reads minimal place 'p', "
        "whose value p is not a number"
    ]
    # either side, once per guard; a declared atom is no better
    doc["transitions"][0]["guard"] = {
        "op": "leq",
        "left": {"kind": "select", "index": 0},
        "right": {"kind": "select", "index": 0},
    }
    doc["places"][0]["initial_value"] = {"kind": "atom", "value": "a"}
    with pytest.raises(DocumentError) as err:
        build(loads(json.dumps(doc)))
    assert err.value.problems == [
        "transitions[0].guard.left.index: select 0 reads minimal place 'p', "
        "whose value a is not a number"
    ]
    # a declared number evaluates, and eq compares any two values
    doc["places"][0]["initial_value"] = {"kind": "num", "value": "2"}
    built = build(loads(json.dumps(doc)))
    assert str(end_to_end(built.pre.baseline(), 0).latency) == "1"
    doc["places"][0]["initial_value"] = {"kind": "atom", "value": "a"}
    doc["transitions"][0]["guard"]["op"] = "eq"
    build(loads(json.dumps(doc)))


def test_an_expression_input_from_an_unvalued_minimal_place_is_rejected_at_build():
    doc = _minimal()
    doc["transitions"][0]["latency"] = {
        "kind": "expr",
        "expr": {"op": "max", "args": [{"op": "const", "value": "1"}, {"op": "input", "index": 0}]},
    }
    parsed = loads(json.dumps(doc))
    with pytest.raises(DocumentError) as err:
        build(parsed)
    assert err.value.problems == [
        "transitions[0].latency.expr.args[1].index: input 0 reads minimal place 'p', "
        "whose value p is not a number"
    ]
    # a declared atom is no better; a declared number evaluates
    doc["places"][0]["initial_value"] = {"kind": "atom", "value": "a"}
    with pytest.raises(DocumentError, match="whose value a is not a number"):
        build(loads(json.dumps(doc)))
    doc["places"][0]["initial_value"] = {"kind": "num", "value": "2"}
    built = build(loads(json.dumps(doc)))
    assert str(end_to_end(built.pre.baseline(), 0).latency) == "2"


def test_workflow_build_carries_the_unfolding():
    built = build(load_corpus("choice-join"))
    assert built.unfolding is not None
    assert built.pre.net is built.unfolding.unfolding
    assert str(end_to_end(built.pre.baseline(), 0).latency) == "3"


# ---------------------------------------------------------------------------
# Serialization


def test_corpus_round_trips_are_stable():
    for name in CORPUS:
        doc = load_corpus(name)
        text = dumps(doc)
        again = loads(text)
        assert again == doc
        assert dumps(again) == text
        assert text.endswith("\n")


def test_defaults_are_omitted_from_serialization():
    doc = loads(json.dumps(_minimal()))
    emitted = json.loads(dumps(doc))
    assert emitted["places"] == [{"id": "p"}, {"id": "q"}]
    assert "value_fn" not in emitted["transitions"][0]
    assert "latency_class" not in emitted["transitions"][0]
    assert emitted["flags"] == {"upward_closed": False}


def test_witness_documents_replay_to_the_same_run():
    orch = build(load_corpus("branch-race")).pre.baseline()
    doc = document_from_orchnet(orch)
    replay = build(doc).pre.baseline()
    for omega in range(orch.omega_count):
        assert end_to_end(replay, omega).latency == end_to_end(orch, omega).latency
    assert not doc.class_grids  # a witness pins one member


# ---------------------------------------------------------------------------
# Corpus access


def test_corpus_names_lists_the_bundled_nets():
    assert corpus_names() == CORPUS


def test_unknown_corpus_name_reports_the_available_ones():
    with pytest.raises(DocumentError, match="branch-race"):
        corpus_text("nope")


@pytest.mark.parametrize("kind", ["workflow", "occurrence"])
def test_declared_initial_value_is_delivered_in_both_document_kinds(kind):
    doc = {
        "format_version": 1,
        "kind": kind,
        "omega_count": 1,
        "places": [{"id": "i", "initial_value": {"kind": "num", "value": "7"}}, {"id": "o"}],
        "transitions": [
            {
                "id": "t",
                "pre": ["i"],
                "post": ["o"],
                "latency": {"kind": "const", "value": "1"},
                "value_fn": {"kind": "select", "index": 0},
            }
        ],
    }
    built = build(loads(json.dumps(doc)))
    assert end_to_end(built.pre.baseline(), 0).values == frozenset({num("7")})


def test_an_occurrence_document_is_its_own_unfolding():
    built = build(load_corpus("channel-grab"))
    assert built.unfolding.unfolding == built.carrier_net
    assert all(built.unfolding.morphism[n] == n for n in built.carrier_net.nodes)
