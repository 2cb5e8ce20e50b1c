"""Write the corpus reports: fifteen CLI invocations on each of 400
documents, 6,000 reports in all, and ten on each of the 240 seeded mutants
of ``tests/test_fuzz.py``, 2,400 more.

The documents are the 200 nets of ``standard_corpus()`` (``tests/randnets.py``)
written twice: as workflow documents, and as their occurrence twins (the
baseline member of the unfolding, with one grid per event).  Each report is
the stdout of ``orchnet.cli.main``, run in-process; the exit codes go into
one file.  The package is imported from the ``src/`` next to this script,
so two checkouts are compared with one ``diff -r``::

    python tests/report_corpus.py OUT_PARENT      # in the parent checkout
    python tests/report_corpus.py OUT_CHANGE      # in the changed one
    diff -r OUT_PARENT OUT_CHANGE

``OUT/documents/`` holds the 400 documents, ``OUT/reports/<document>/``
their reports and ``OUT/exit_codes.json`` every exit code.  The mutants,
most of which end in an error report, go under ``documents/mutants/`` and
``reports/mutants/``, run with the invocations of ``tests/test_fuzz.py``.
The grid sweeps of the 400 documents run with ``--cap 5000``: with the
default cap the occurrence twins of the larger nets (4^k members for k
events) do not finish in practical time.
This file is a script, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from orchnet.cli import main  # noqa: E402
from orchnet.document import (  # noqa: E402
    NetDocument,
    PlaceDecl,
    TransitionDecl,
    build,
    document_from_orchnet,
    dumps,
)
from tests.randnets import GRID, GeneratedNet, standard_corpus  # noqa: E402

INVOCATIONS = (
    ("validate",),
    ("unfold",),
    ("check-structural",),
    ("simulate", "--omega", "0", "--tie", "lex"),
    ("simulate", "--omega", "0", "--tie", "all"),
    ("check-global", "--omega", "0", "--tie", "lex"),
    ("check-global", "--omega", "0", "--tie", "all"),
    ("counterexample", "--omega", "0", "--tie", "lex"),
    ("counterexample", "--omega", "0", "--tie", "all"),
    ("oracle", "--mode", "adjacent", "--tie", "lex", "--cap", "5000"),
    ("oracle", "--mode", "all_pairs", "--tie", "lex", "--cap", "5000"),
    ("oracle", "--mode", "all_pairs", "--tie", "all", "--cap", "5000"),
    ("check-conditional", "--tie", "lex", "--cap", "5000"),
    ("check-conditional", "--tie", "all", "--cap", "5000"),
    ("check-conditional", "--tie", "lex", "--force-brute", "--cap", "5000"),
)


def workflow_document(gen: GeneratedNet) -> NetDocument:
    net = gen.workflow.net
    specs = gen.specs
    places = tuple(
        PlaceDecl(id=p, initial_date=specs.initial_date.get(p)) for p in sorted(net.places)
    )
    transitions = tuple(
        TransitionDecl(
            id=t,
            pre=tuple(sorted(net.preset[t])),
            post=tuple(sorted(net.postset[t])),
            latency=specs.latency[t],
            # a head of a tagged net keeps the document default, the atom t
            value_fn=None if gen.tagged and t in gen.choice_heads else specs.value_fn[t],
        )
        for t in sorted(net.transitions)
    )
    return NetDocument(
        kind="workflow",
        omega_count=specs.omega_count,
        places=places,
        transitions=transitions,
        class_grids={t: GRID for t in sorted(net.transitions)},
        upward_closed=True,
    )


def occurrence_twin(doc: NetDocument) -> NetDocument:
    twin = document_from_orchnet(build(doc).pre.baseline())
    return NetDocument(
        kind=twin.kind,
        omega_count=twin.omega_count,
        places=twin.places,
        transitions=twin.transitions,
        class_grids={t.id: GRID for t in twin.transitions},
        upward_closed=True,
    )


def write_reports() -> int:
    """Write everything into the current directory; reports name their
    document by its path relative to it."""
    # imported here: tests/test_fuzz.py imports this module
    from tests.test_fuzz import INVOCATIONS as MUTANT_INVOCATIONS
    from tests.test_fuzz import seeded_mutants

    Path("documents", "mutants").mkdir(parents=True, exist_ok=True)
    codes: dict[str, int] = {}
    documents = []
    for gen in standard_corpus():
        wf = workflow_document(gen)
        for name, doc in ((gen.name, wf), (f"{gen.name}-occurrence", occurrence_twin(wf))):
            documents.append((name, dumps(doc), INVOCATIONS))
    for name, doc in seeded_mutants():
        documents.append((f"mutants/{name}", json.dumps(doc), MUTANT_INVOCATIONS))
    for name, text, invocations in documents:
        path = f"documents/{name}.net"
        Path(path).write_text(text, encoding="utf-8")
        reports = Path("reports", name)
        reports.mkdir(parents=True, exist_ok=True)
        for args in invocations:
            case = "_".join(a.lstrip("-") for a in args)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                codes[f"{name}/{case}"] = main([args[0], path, *args[1:]])
            (reports / f"{case}.json").write_text(stdout.getvalue(), encoding="utf-8")
    Path("exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(codes)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    os.makedirs(sys.argv[1], exist_ok=True)
    os.chdir(sys.argv[1])
    print(f"{write_reports()} reports written to {sys.argv[1]}")
