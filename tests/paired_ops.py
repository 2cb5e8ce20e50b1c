"""Time one benchmark op in two checkouts of the package, in one process.

Two checkouts run in separate processes on a shared host can differ by
several percent with identical code.  This script removes that noise: it
imports this checkout's package as ``orchnet`` and the other checkout's
(``--other``, its ``src`` directory) under the name ``orchnet_other``, then
takes the same documents through the same op on both, alternating which
side goes first from one document to the next.  Every pair of answers
must be equal; the script prints, per workload, the geometric mean over
documents of the time ratio this/other.  Pointing ``--other`` at this
checkout gives an A/A run, which reads the method's own noise.

The documents are those of ``orchbench/gen.py``, read and left as it is,
and each op makes the library calls of its workload in
``orchbench/workloads.py``: the grid oracle for grid-oracle, the
structural check and counterexample synthesis for witness-synthesis, and
one race for race-scale.  Each op starts cold: both packages' memo tables
are emptied and garbage is collected before it.

    python tests/paired_ops.py --other PARENT/src
    python tests/paired_ops.py --other PARENT/src --workload race-scale --documents 88

This file is a script, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("witness-synthesis", "grid-oracle", "race-scale")
# documents per workload by default: one benchmark batch each
DOCUMENTS = {"grid-oracle": 200, "witness-synthesis": 264, "race-scale": 44}
ALL_PAIRS_LIMIT = 1024  # as in orchbench/workloads.py


def load_package(src: Path, name: str):
    """The package under ``src/orchnet``, imported as ``name`` with every
    submodule; its relative imports resolve within it."""
    init = src / "orchnet" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("attributes", "document", "errors", "monotony", "nets", "specs", "timed"):
        importlib.import_module(f"{name}.{sub}")
    return package


def memo_clearers(name: str) -> list:
    return [
        value.cache_clear
        for mod_name, module in sorted(sys.modules.items())
        if mod_name == name or mod_name.startswith(name + ".")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]


def grid_op(pkg, item, text: str):
    document, monotony = pkg.document, pkg.monotony
    built = document.build(document.loads(text))
    members = built.pre.member_count()
    mode = "adjacent" if item.clean or members > ALL_PAIRS_LIMIT else "all_pairs"
    report = monotony.brute_force_monotony(built.pre, mode=mode)
    w = report.witness
    witness = None
    if w is not None:
        witness = (repr(w.hi), repr(w.lo), w.omega, str(w.latency_hi), str(w.latency_lo))
    return report.outcome, report.members_checked, report.pairs_checked, witness


def synthesis_op(pkg, item, text: str):
    document, monotony = pkg.document, pkg.monotony
    built = document.build(document.loads(text))
    if monotony.structural_check(built.carrier).satisfied:
        return "monotonic"
    try:
        outcome = monotony.synthesize_counterexample(built.carrier, built.specs, 0)
    except pkg.errors.SynthesisError as exc:
        return f"undecided: {exc}"
    lo = document.document_to_json(document.document_from_orchnet(outcome.lo))
    hi = document.document_to_json(document.document_from_orchnet(outcome.hi))
    return outcome.omega, outcome.verification.accepted, lo, hi


def race_op(pkg, item, text: str):
    built = pkg.document.build(pkg.document.loads(text))
    orch = built.pre.baseline()
    run = pkg.timed.execute(orch, item.omega)
    summary = pkg.timed.summarize_run(orch, run)
    return str(summary.latency), run.step_order


def documents(workload: str, seed: int, count: int) -> list:
    sys.path.insert(0, str(ROOT / "orchbench"))
    import gen

    stream = {
        "grid-oracle": gen.grid_oracle_stream,
        "witness-synthesis": gen.synthesis_stream,
        "race-scale": gen.race_stream,
    }[workload](seed)
    return [(item, gen.document_text(item.document)) for item in (next(stream) for _ in range(count))]


def paired(workload: str, docs: list, sides: list) -> list[float]:
    """Per document, this side's op time over the other side's; the two
    answers are checked to be equal."""
    op = {"grid-oracle": grid_op, "witness-synthesis": synthesis_op, "race-scale": race_op}[workload]
    ratios = []
    for i, (item, text) in enumerate(docs):
        times, answers = {}, {}
        for label, pkg, clear in sides if i % 2 == 0 else sides[::-1]:
            for fn in clear:
                fn()
            gc.collect()
            start = time.perf_counter()
            answers[label] = op(pkg, item, text)
            times[label] = time.perf_counter() - start
        if answers["this"] != answers["other"]:
            raise AssertionError(f"{workload} document {i}: the two checkouts disagree")
        ratios.append(times["this"] / times["other"])
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other", required=True, help="the other checkout's src directory")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--documents", type=int, help="documents per workload")
    parser.add_argument("--repeats", type=int, default=1, help="passes over the documents")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    this = importlib.import_module("orchnet")
    for sub in ("document", "monotony", "timed"):
        importlib.import_module(f"orchnet.{sub}")
    other = load_package(Path(args.other).resolve(), "orchnet_other")
    sides = [("this", this, memo_clearers("orchnet")), ("other", other, memo_clearers("orchnet_other"))]

    gc.collect()
    gc.freeze()
    for workload in args.workload or WORKLOADS:
        docs = documents(workload, args.seed, args.documents or DOCUMENTS[workload])
        ratios = []
        for _ in range(args.repeats):
            ratios += paired(workload, docs, sides)
        logs = [math.log(r) for r in ratios]
        geomean = math.exp(statistics.fmean(logs))
        print(
            f"{workload:18s} seed {args.seed}  {len(docs)} documents x {args.repeats}  "
            f"geomean this/other {geomean:.4f}  (this faster on {sum(r < 1 for r in ratios)}/{len(ratios)})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
