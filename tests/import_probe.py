"""Time ``import orchnet, orchnet.cli`` in fresh interpreters, two checkouts.

That import is the package's share of the benchmark's ``setup_s``: the
rest is the interpreter's start and the harness's own imports.  Each run
starts a new interpreter with ``PYTHONPATH`` set to one checkout's ``src``
directory and times the import inside it with ``perf_counter``.  Runs
alternate between the two checkouts, and which one goes first alternates
from pair to pair.  One untimed run per side first writes the bytecode
caches, so no timed run compiles.  The script prints, per side, the median
and quartiles in ms, and in how many pairs this checkout was faster::

    python tests/import_probe.py --other PARENT/src
    python tests/import_probe.py --other PARENT/src --runs 40

Pointing ``--other`` at this checkout gives an A/A run.  This file is a
script, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import orchnet, orchnet.cli\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=src, capture_output=True, text=True, check=True
    ).stdout
    return float(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="this checkout's src directory")
    parser.add_argument("--other", required=True, help="the other checkout's src directory")
    parser.add_argument("--runs", type=int, default=40, help="timed runs per side")
    args = parser.parse_args(argv)
    sides = {"this": Path(args.src).resolve(), "other": Path(args.other).resolve()}

    for src in sides.values():
        import_seconds(src)
    times: dict[str, list[float]] = {"this": [], "other": []}
    for i in range(args.runs):
        for label in ("this", "other") if i % 2 == 0 else ("other", "this"):
            times[label].append(import_seconds(sides[label]) * 1000)

    for label, ms in times.items():
        q1, med, q3 = statistics.quantiles(ms, n=4)
        print(f"{label:5s} {sides[label]}  median {med:.1f} ms  quartiles {q1:.1f}-{q3:.1f} ms")
    wins = sum(a < b for a, b in zip(times["this"], times["other"]))
    print(f"this faster in {wins}/{args.runs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
