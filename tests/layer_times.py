"""Time each layer of the race-scale op, one document at a time.

The race-scale benchmark op (``orchnet simulate``) takes a ``.net`` text
through ``loads``, ``build``, ``baseline``, ``execute`` and
``summarize_run``.  This script splits that path into nine phases and
times each of them on the first documents of the race-scale stream
(``orchbench/gen.py``, read and left as it is):

    json       json.loads
    parse      document_from_json
    net        document_net: the arcs as a Net, with its preset/postset
    relations  require_occurrence_net: validation and the relation tables
    specs      carrier_specs
    family     the identity unfolding and induced_preorchnet
    baseline   PreOrchNet.baseline
    execute    timed.execute
    summarize  timed.summarize_run

Every document starts cold, as one CLI call would: the package's memo
tables are emptied before it.  A repeat times all documents once; each
phase's figure is the median over the repeats of its total, in ms.  A
separate, untimed pass counts the work: nodes, race steps, heap
operations (``timed.heappush`` and ``timed.heappop`` calls), value
functions stored in the family (``value_fns``) and transitions compiled by
the race (``compiled``, calls of ``timed._RaceNet.compile``).

The result is one column of ``BENCH_race_layers.json``; other columns in
that file are kept, so two checkouts are compared in one file::

    python tests/layer_times.py --src PARENT/src --column parent
    python tests/layer_times.py --column change

This file is a script, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

from paired_ops import memo_clearers  # a sibling script: tests/ is on the path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("json", "parse", "net", "relations", "specs", "family", "baseline", "execute", "summarize")


def race_documents(seed: int, count: int) -> list[tuple[str, int]]:
    sys.path.insert(0, str(ROOT / "orchbench"))
    import gen

    stream = gen.race_stream(seed)
    return [(gen.document_text(item.document), item.omega) for item in (next(stream) for _ in range(count))]


def document_net(doc):
    """``document.document_net``; a checkout from before that function
    builds the net with the call ``build_carrier`` made then."""
    from orchnet import document, nets

    if hasattr(document, "document_net"):
        return document.document_net(doc)
    return nets.net_from_arcs(
        {t.id: (t.pre, t.post) for t in doc.transitions}, places=[p.id for p in doc.places]
    )


def one_document(text: str, omega: int, clock) -> tuple[list[float], object]:
    """The op's phases on one (occurrence) document: their times and the
    run.  ``net`` and ``relations`` together are ``build_carrier``."""
    from orchnet import document, nets, timed
    from orchnet.unfolding import Morphism, UnfoldingResult, induced_preorchnet

    marks = [clock()]
    obj = json.loads(text)
    marks.append(clock())
    doc = document.document_from_json(obj)
    marks.append(clock())
    net = document_net(doc)
    marks.append(clock())
    nets.require_occurrence_net(net)
    marks.append(clock())
    specs = document.carrier_specs(doc, net)
    marks.append(clock())
    identity = UnfoldingResult(unfolding=net, morphism=Morphism({n: n for n in net.nodes}))
    pre = induced_preorchnet(identity, specs)
    marks.append(clock())
    orch = pre.baseline()
    marks.append(clock())
    run = timed.execute(orch, omega)
    marks.append(clock())
    timed.summarize_run(orch, run)
    marks.append(clock())
    return [b - a for a, b in zip(marks, marks[1:])], (net, pre, run)


def count_work(docs, clear) -> dict:
    from orchnet import timed

    work = dict.fromkeys(("nodes", "steps", "heap_ops", "value_fns", "compiled"), 0)

    def counted(fn, key):
        def wrapper(*args):
            work[key] += 1
            return fn(*args)

        return wrapper

    push, pop, compile_ = timed.heappush, timed.heappop, timed._RaceNet.compile
    timed.heappush, timed.heappop = counted(push, "heap_ops"), counted(pop, "heap_ops")
    timed._RaceNet.compile = counted(compile_, "compiled")
    try:
        for text, omega in docs:
            clear()
            _, (net, pre, run) = one_document(text, omega, time.perf_counter)
            work["nodes"] += len(net.places) + len(net.transitions)
            work["steps"] += len(run.step_order)
            work["value_fns"] += len(pre.value_fn)
    finally:
        timed.heappush, timed.heappop, timed._RaceNet.compile = push, pop, compile_
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the package's src directory")
    parser.add_argument("--column", required=True, help="the column name, e.g. parent or change")
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--documents", type=int, default=88)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", default=str(ROOT / "BENCH_race_layers.json"))
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import orchnet.document  # noqa: F401  (every module with a memo table)

    docs = race_documents(args.seed, args.documents)
    clearers = memo_clearers("orchnet")

    def clear() -> None:
        for fn in clearers:
            fn()
        gc.collect()

    work = count_work(docs, clear)
    totals = {phase: [] for phase in PHASES}
    totals["total"] = []
    for _ in range(args.repeats):
        sums = [0.0] * len(PHASES)
        for text, omega in docs:
            clear()
            times, _ = one_document(text, omega, time.perf_counter)
            sums = [a + b for a, b in zip(sums, times)]
        for phase, s in zip(PHASES, sums):
            totals[phase].append(s)
        totals["total"].append(sum(sums))

    column = {
        "seed": args.seed,
        "documents": args.documents,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "median_ms": {k: round(1000 * statistics.median(v), 2) for k, v in totals.items()},
        "range_ms": {k: [round(1000 * min(v), 2), round(1000 * max(v), 2)] for k, v in totals.items()},
        "work": work,
    }
    out = Path(args.out)
    table = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    table[args.column] = column
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for phase in (*PHASES, "total"):
        print(f"{phase:10s} {column['median_ms'][phase]:10.2f} ms")
    print(json.dumps(work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
