"""Time and count the grid sweep of the grid-oracle op, one document at a time.

The grid-oracle benchmark op (``orchnet oracle``) builds a workflow
document and sweeps its grid with ``brute_force_monotony``: adjacent
raises on clean nets and on nets above ``ALL_PAIRS_LIMIT`` members, all
dominating pairs otherwise.  This script runs that op on the first
documents of the grid-oracle stream (``orchbench/gen.py`` and
``orchbench/workloads.py``, read and left as they are) in two phases:

    build   document.loads and document.build
    sweep   monotony.brute_force_monotony

Every document starts cold, as one CLI call would: the package's memo
tables are emptied before it.  A repeat times all documents once; each
phase's figure is the median over the repeats of its total, in ms.  A
separate, untimed pass counts the work:

    members    members_checked, summed over the documents
    pairs      pairs_checked
    evaluated  the (member, omega) outcomes the sweep charges to its cap,
               read off the pairs it walked
    races      RaceKernel.race calls
    reused     evaluated members that were not raced
    delays     OrchNet.delay_of calls, witness replays included
    compiled   _RaceNet.compile calls

The result is one column of ``BENCH_grid_sweep.json``; other columns in
that file are kept, so two checkouts are compared in one file::

    python tests/sweep_counts.py --src PARENT/src --column parent
    python tests/sweep_counts.py --column change

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
from itertools import islice
from pathlib import Path

from paired_ops import memo_clearers  # a sibling script: tests/ is on the path

ROOT = Path(__file__).resolve().parent.parent


def grid_documents(seed: int, count: int) -> tuple[list[tuple[str, bool]], int]:
    """The first ``count`` documents of the stream, each with its clean
    flag, and the member count above which the op sweeps adjacent pairs."""
    sys.path.insert(0, str(ROOT / "orchbench"))
    import gen
    import workloads

    stream = gen.grid_oracle_stream(seed)
    items = [next(stream) for _ in range(count)]
    return [(gen.document_text(item.document), item.clean) for item in items], workloads.ALL_PAIRS_LIMIT


def one_document(text: str, clean: bool, limit: int, clock) -> tuple[list[float], object, str, object]:
    """The op's two phases on one document: their times, the pre-orchnet,
    the mode and the report."""
    from orchnet import document, monotony

    t0 = clock()
    pre = document.build(document.loads(text)).pre
    t1 = clock()
    mode = "adjacent" if clean or pre.member_count() > limit else "all_pairs"
    report = monotony.brute_force_monotony(pre, mode=mode)
    t2 = clock()
    if report.outcome == "undecided":
        raise SystemExit(f"undecided: {report.note}")
    return [t1 - t0, t2 - t1], pre, mode, report


def evaluated_outcomes(pre, mode: str, report) -> int:
    """The (member, omega) outcomes that the sweep needed: both members of
    every pair it walked, at every omega, except that the violating pair
    stops at the witness's omega."""
    from orchnet import monotony

    pairs = islice(monotony._dominating_pairs(pre.grid_index, mode), report.pairs_checked)
    keys = set()
    for n, (hi, lo) in enumerate(pairs, 1):
        last = report.witness.omega if report.witness and n == report.pairs_checked else pre.omega_count - 1
        keys.update((m, omega) for m in (hi, lo) for omega in range(last + 1))
    return len(keys)


def count_work(docs, limit: int, clear) -> dict:
    from orchnet import timed

    work = {"documents": len(docs), "members": 0, "pairs": 0, "evaluated": 0}
    # (owner, attribute, count): each call of the method adds one to its count
    patched = [
        (timed.RaceKernel, "race", "races"),
        (timed.OrchNet, "delay_of", "delays"),
        (timed._RaceNet, "compile", "compiled"),
    ]
    real = [getattr(owner, name) for owner, name, _ in patched]

    def counter(fn, key):
        def counted(*args, **kwargs):
            work[key] += 1
            return fn(*args, **kwargs)

        return counted

    for (owner, name, key), fn in zip(patched, real):
        work[key] = 0
        setattr(owner, name, counter(fn, key))
    try:
        for text, clean in docs:
            clear()
            _, pre, mode, report = one_document(text, clean, limit, time.perf_counter)
            work["members"] += report.members_checked
            work["pairs"] += report.pairs_checked
            work["evaluated"] += evaluated_outcomes(pre, mode, report)
    finally:
        for (owner, name, _), fn in zip(patched, real):
            setattr(owner, name, fn)
    work["reused"] = work["evaluated"] - work["races"]
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the package's src directory")
    parser.add_argument("--column", required=True, help="the column name, e.g. parent or change")
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--documents", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_grid_sweep.json"))
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import orchnet.document  # noqa: F401  (every module with a memo table)
    import orchnet.monotony  # noqa: F401

    docs, limit = grid_documents(args.seed, args.documents)
    clearers = memo_clearers("orchnet")

    def clear() -> None:
        for fn in clearers:
            fn()
        gc.collect()

    work = count_work(docs, limit, clear)
    phases = ("build", "sweep")
    totals = {phase: [] for phase in (*phases, "total")}
    for _ in range(args.repeats):
        sums = [0.0, 0.0]
        for text, clean in docs:
            clear()
            times, *_ = one_document(text, clean, limit, time.perf_counter)
            sums = [a + b for a, b in zip(sums, times)]
        for phase, s in zip(phases, sums):
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
    for phase in (*phases, "total"):
        print(f"{phase:10s} {column['median_ms'][phase]:10.2f} ms")
    print(json.dumps(work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
