"""Seeded mutants of real documents through every subcommand, in-process.

Each mutant is a document edited one to three times: by the mutation
operators of ``tests/test_document_reference.py`` (keys dropped or added,
wrong types, bad dates, duplicate ids, bad arcs and more), or by edits that
keep it well-formed (arcs moved, transitions dropped, the kind flipped,
latencies, value functions and guards replaced).  The documents mutated
are the four bundled nets and twenty ``tests/report_corpus.py`` documents
(ten of its nets, as workflow documents and as their occurrence twins).
Every mutant goes through each subcommand with caps of 200, and every run
must end as the CLI promises: an exit code from 0 to 3, one JSON report on
stdout, and nothing on stderr (so no traceback).
"""

import contextlib
import io
import json
import random
from collections import Counter

from orchnet.cli import main
from orchnet.document import corpus_names, corpus_text, dumps

from .randnets import standard_corpus
from .report_corpus import occurrence_twin, workflow_document
from .test_document_reference import OPERATORS

INVOCATIONS = (
    ("validate", "--cap", "200"),
    ("unfold",),
    ("check-structural",),
    ("simulate", "--omega", "0", "--tie", "lex"),
    ("simulate", "--omega", "0", "--tie", "all"),
    ("check-global", "--omega", "0", "--cap", "200"),
    ("counterexample", "--omega", "0"),
    ("oracle", "--mode", "adjacent", "--cap", "200"),
    ("oracle", "--mode", "all_pairs", "--cap", "200"),
    ("check-conditional", "--cap", "200"),
)
MUTANTS = 10  # per document


# Edits that keep a document well-formed, so that its mutants reach the
# net checks, the race and the sweeps rather than the parser.


def reroute(rng, doc):
    """An arc moved to another place, or a second arc to an existing one."""
    places = [p["id"] for p in doc["places"]]
    t = rng.choice(doc["transitions"])
    side = t[rng.choice(("pre", "post"))]
    place = rng.choice(places)
    if side and rng.random() < 0.5:
        side[rng.randrange(len(side))] = place
    elif place not in side:
        side.append(place)


def drop_transition(rng, doc):
    t = doc["transitions"].pop(rng.randrange(len(doc["transitions"])))
    doc.get("grids", {}).pop(t["id"], None)
    if not doc["transitions"]:
        doc["transitions"].append(t)


def flip_kind(rng, doc):
    doc["kind"] = "workflow" if doc["kind"] == "occurrence" else "occurrence"


def retime(rng, doc):
    t = rng.choice(doc["transitions"])
    n = doc["omega_count"]
    t["latency"] = rng.choice(
        (
            {"kind": "infinite"},
            {"kind": "const", "value": rng.choice(("0", "1/3", "7"))},
            {"kind": "per_omega", "values": [rng.choice(("0", "2", "inf")) for _ in range(n)]},
            {"kind": "expr", "expr": {"op": "add", "args": [{"op": "input", "index": 0}, {"op": "const", "value": "1"}]}},
        )
    )


def compute(rng, doc):
    """A value function or a guard that parses but may not evaluate."""
    t = rng.choice(doc["transitions"])
    if rng.random() < 0.5:
        t["value_fn"] = rng.choice(
            (
                {"kind": "sum"},
                {"kind": "tuple_of_inputs"},
                {"kind": "select", "index": 0},
                {"kind": "const", "value": {"kind": "num", "value": "2"}},
            )
        )
    else:
        t["guard"] = {
            "op": rng.choice(("eq", "lt", "leq")),
            "left": {"kind": "select", "index": 0},
            "right": {"kind": "const", "value": {"kind": "num", "value": rng.choice(("0", "3"))}},
        }


DEEP = (reroute, drop_transition, flip_kind, retime, compute)


def mutate(text: str, rng: random.Random) -> dict:
    """Half the mutants go through the parser's operators, half through
    ``DEEP``."""
    doc = json.loads(text)
    operators = OPERATORS if rng.random() < 0.5 else DEEP
    for operator in rng.sample(operators, rng.randint(1, 3)):
        operator(rng, doc)
    return doc


def base_documents() -> list[tuple[str, str]]:
    docs = [(name, corpus_text(name)) for name in corpus_names()]
    for gen in standard_corpus()[::20]:
        wf = workflow_document(gen)
        docs += [(gen.name, dumps(wf)), (f"{gen.name}-occurrence", dumps(occurrence_twin(wf)))]
    return docs


def seeded_mutants():
    """The mutants, named ``<document>-<k>``: ``MUTANTS`` per base document,
    drawn in turn from one generator seeded by the document's position."""
    for i, (name, text) in enumerate(base_documents()):
        rng = random.Random(7700 + i)
        for k in range(MUTANTS):
            yield f"{name}-{k}", mutate(text, rng)


def test_mutants_of_every_document_end_in_a_report(tmp_path):
    codes = Counter()
    for name, doc in seeded_mutants():
        path = tmp_path / f"{name}.net"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for args in INVOCATIONS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([args[0], str(path), *args[1:]])
            where = f"{args} on mutant {name}:\n{path.read_text(encoding='utf-8')}"
            assert code in (0, 1, 2, 3), where
            assert isinstance(json.loads(out.getvalue()), dict), where
            assert err.getvalue() == "", where
            codes[code] += 1
    assert sum(codes.values()) == 24 * MUTANTS * len(INVOCATIONS)  # 24 base documents
    # the edits reach past the parser: a sixth of the runs are judged
    assert codes[0] + codes[1] + codes[3] > sum(codes.values()) // 6
    assert min(codes[0], codes[1], codes[3]) > 0
