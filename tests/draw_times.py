"""Time counterexample synthesis on the seed-11 tail: 60, 80 and 100 transitions.

Each draw is ``random_workflow(rng, size, force_diff=True)`` from
``tests/randnets.py``, where ``rng = random.Random(11)`` is made once per
size and draw #k is its k-th net; 8 draws per size.  Each draw runs in a
fresh process against the package under ``--src``: ``unfold`` (the
soundness check included), then ``synthesize_counterexample`` at omega 0,
both under one ``--limit`` in seconds, ``--repeats`` times (run k with
``PYTHONHASHSEED=k``, on both checkouts alike).  Per draw the
script prints the median unfold time and synthesis time, the unfolding's
events, the markings the soundness check explored, and the outcome:

    synthesis    a verified counterexample
    undecided    synthesis found no verifiable witness
    event cap    the unfolding passed ``EVENT_CAP``
    limit        the limit struck first (the times say in which phase)

The result is one column of ``BENCH_synthesis_tail.json``; other columns
in that file are kept, so two checkouts are compared in one file::

    python tests/draw_times.py --src PARENT/src --column parent
    python tests/draw_times.py --column change

This file is a script, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (60, 80, 100)
DRAWS = 8


class _Limit(Exception):
    pass


def _alarm(signum, frame):
    raise _Limit()


def child(size: int, draw: int, limit: float) -> None:
    """Run one draw and print one JSON line per finished phase."""
    from orchnet import unfold
    from orchnet import unfolding
    from orchnet.errors import CapExceededError, SynthesisError
    from orchnet.monotony import synthesize_counterexample

    from tests.randnets import random_workflow

    rng = random.Random(11)
    for _ in range(draw):
        gen = random_workflow(rng, size, force_diff=True)  # its soundness check is not timed

    markings = []
    real = unfolding.is_sound

    def counting(wf, *args, **kwargs):
        verdict = real(wf, *args, **kwargs)
        markings.append(verdict.markings_explored)
        return verdict

    unfolding.is_sound = counting

    def emit(**row) -> None:
        print(json.dumps(row), flush=True)

    gc.collect()  # the generator's soundness check leaves garbage
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        result = unfold(gen.workflow)
    except CapExceededError:
        emit(phase="unfold", seconds=time.perf_counter() - start, markings=markings[0], outcome="event cap")
        return
    except _Limit:
        emit(phase="unfold", seconds=limit, markings=markings[0] if markings else None, outcome="limit")
        return
    mid = time.perf_counter()
    emit(phase="unfold", seconds=mid - start, markings=markings[0], events=len(result.unfolding.transitions))
    try:
        synthesize_counterexample(gen.workflow, gen.specs, 0)  # verified, or it raises
        verdict = "synthesis"
    except SynthesisError:
        verdict = "undecided"
    except _Limit:
        verdict = "limit"
    except CapExceededError:
        verdict = "event cap"
    signal.setitimer(signal.ITIMER_REAL, 0)
    emit(phase="synthesis", seconds=time.perf_counter() - mid, outcome=verdict)


def run_once(src: Path, size: int, draw: int, limit: float, hash_seed: int) -> dict:
    cmd = [sys.executable, __file__, "--child", str(size), str(draw), "--src", str(src), "--limit", str(limit)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=limit + 120, cwd=ROOT, env=env)
    if proc.returncode:
        raise RuntimeError(f"draw {draw} of {size} failed:\n{proc.stderr}")
    row: dict = {"synthesis_s": None, "events": None}
    for line in proc.stdout.splitlines():
        got = json.loads(line)
        phase = got.pop("phase")
        row[f"{phase}_s"] = got.pop("seconds")
        row.update(got)
    return row


def run_draw(src: Path, size: int, draw: int, limit: float, repeats: int) -> dict:
    """The draw's medians over ``repeats`` fresh processes; an outcome that
    differs between them is given as each one seen.  Run k has hash seed k,
    so that every set is iterated in the same order on both checkouts and
    a run can be repeated as it was."""
    runs = [run_once(src, size, draw, limit, k) for k in range(repeats)]
    row = {"size": size, "draw": draw, **runs[0]}
    for key in ("unfold_s", "synthesis_s"):
        times = [r[key] for r in runs if r[key] is not None]
        row[key] = round(statistics.median(times), 3) if len(times) == repeats else None
    row["outcome"] = "/".join(sorted({r["outcome"] for r in runs}))
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the checkout's src directory")
    parser.add_argument("--column", help="write the rows under this key of --out")
    parser.add_argument("--out", default=str(ROOT / "BENCH_synthesis_tail.json"))
    parser.add_argument("--limit", type=float, default=20.0, help="seconds per draw")
    parser.add_argument("--repeats", type=int, default=3, help="runs per draw; medians are shown")
    parser.add_argument("--child", nargs=2, type=int, metavar=("SIZE", "DRAW"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()

    if args.child:
        sys.path[:0] = [str(src), str(ROOT)]
        child(*args.child, args.limit)
        return 0

    rows = []
    print(f"{'size':>4} {'draw':>4} {'unfold_s':>9} {'synth_s':>8} {'events':>7} {'markings':>8}  outcome")
    for size in SIZES:
        for draw in range(1, DRAWS + 1):
            row = run_draw(src, size, draw, args.limit, args.repeats)
            rows.append(row)
            synth = "-" if row["synthesis_s"] is None else f"{row['synthesis_s']:.3f}"
            print(
                f"{size:4d} {draw:4d} {row['unfold_s']:9.3f} {synth:>8} {row['events'] or '-':>7} "
                f"{row['markings'] or '-':>8}  {row['outcome']}",
                flush=True,
            )
    if args.column:
        out = Path(args.out)
        table = json.loads(out.read_text()) if out.exists() else {}
        table[args.column] = {
            "limit_s": args.limit,
            "repeats": args.repeats,
            "python": platform.python_version(),
            "draws": rows,
        }
        out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
