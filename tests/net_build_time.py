"""Time building the ``Net`` of the unfolding of k choices in a row.

``unfolding.unfold`` names every node (``_names``), builds the unfolding's
``Net`` from its condition and event tables, then validates it
(``require_occurrence_net``).  This script times the span between the end
of ``_names`` and the start of that validation, in a fresh interpreter per
run, so two checkouts can be compared on one host::

    python tests/net_build_time.py --src PARENT/src
    python tests/net_build_time.py

Each run also prints the whole ``unfold`` time and the node count.  The
span includes building the node map, which both sides do the same way.
This file is a script, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_RUN = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from orchnet import unfolding
from tests.test_unfolding import choices_in_a_row

marks = {}

def timed(name, fn, when):
    def wrapper(*args, **kwargs):
        if when == "start":
            marks[name] = time.perf_counter()
        result = fn(*args, **kwargs)
        if when == "end":
            marks[name] = time.perf_counter()
        return result
    return wrapper

unfolding._names = timed("named", unfolding._names, "end")
unfolding.require_occurrence_net = timed("built", unfolding.require_occurrence_net, "start")
wf = choices_in_a_row(int(sys.argv[3]))
start = time.perf_counter()
result = unfolding.unfold(wf)
total = time.perf_counter() - start
net = result.unfolding
print(json.dumps({"build_s": marks["built"] - marks["named"], "unfold_s": total,
                  "nodes": len(net.places) + len(net.transitions)}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the package's src directory")
    parser.add_argument("--k", type=int, default=14)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    runs = []
    for _ in range(args.runs):
        out = subprocess.run(
            [sys.executable, "-c", _RUN, args.src, str(ROOT), str(args.k)],
            capture_output=True, text=True, check=True,
        ).stdout
        runs.append(json.loads(out))
        print(out.strip())
    builds = [r["build_s"] for r in runs]
    print(f"build: median {statistics.median(builds):.3f} s, range {min(builds):.3f}-{max(builds):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
