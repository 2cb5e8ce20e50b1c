"""orchnet benchmark: time to verdict, closed loop, one client.

Usage (from the repository root):

    python3 orchbench/run.py --workload grid-oracle --seed 20260823 --seconds 20 --trace 0

One op takes one generated ``.net`` document to its verdict or run report
through the library calls of the matching CLI subcommand; the next op
starts when the previous one returns.  Ops run until ``--seconds`` have
passed (or exactly ``--ops N`` of them).  Every answer is checked against
one known from the generator; a wrong answer fails the run.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` the run wraps each layer's public functions, and the
last line carries the per-layer metrics plus the tracing overhead: every
other document is also taken through untraced, and the overhead is the
traced total over the untraced one for those documents, less one.  The lines
before it, and ``.orchbench/report-*.json``, hold the full report.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".orchbench")


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


# ---------------------------------------------------------------------------
# Preflight: the 8 subcommands on the 4 corpus nets, through the CLI entry.

COMMANDS = (
    ("validate",),
    ("unfold",),
    ("simulate", "--omega", "0"),
    ("check-structural",),
    ("check-global", "--omega", "0"),
    ("oracle",),
    ("counterexample", "--omega", "0"),
    ("check-conditional",),
)
# exit codes per corpus net, in COMMANDS order: 0 holds, 1 violated, 3 undecided
EXPECTED_CODES = {
    "branch-race": (0, 0, 0, 1, 0, 1, 1, 0),
    "channel-grab": (0, 0, 0, 1, 1, 1, 1, 0),
    "choice-join": (0, 0, 0, 0, 0, 0, 0, 0),
    "overlap-cluster": (0, 0, 0, 1, 1, 1, 3, 0),
}
# the README's example numbers: end-to-end latency at omega 0 and 1
EXPECTED_LATENCY = {"branch-race": ("6", "8"), "channel-grab": ("11", "5")}


def _cli(main, argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def preflight() -> list[str]:
    from orchnet.cli import main

    problems = []
    checks = [
        ((command[0], f"corpus:{name}", *command[1:]), code, None)
        for name, codes in EXPECTED_CODES.items()
        for command, code in zip(COMMANDS, codes)
    ] + [
        (("simulate", f"corpus:{name}", "--omega", str(omega)), 0, latency)
        for name, latencies in EXPECTED_LATENCY.items()
        for omega, latency in enumerate(latencies)
    ]
    for argv, expected_code, expected_latency in checks:
        try:
            code, report = _cli(main, argv)
        except Exception as exc:  # a crash is a wrong answer, not a benchmark error
            problems.append(f"orchnet {' '.join(argv)} raised {type(exc).__name__}: {exc}")
            continue
        if code != expected_code:
            problems.append(f"orchnet {' '.join(argv)} exited {code}, expected {expected_code}")
        elif expected_latency is not None and report["runs"][0]["end_to_end"] != expected_latency:
            got = report["runs"][0]["end_to_end"]
            problems.append(f"orchnet {' '.join(argv)} gave {got}, expected {expected_latency}")
    return problems


# ---------------------------------------------------------------------------
# Inputs: documents drawn from the workload's stream, written a batch at a time


class Inputs:
    def __init__(self, workload, seed: int, workdir: str) -> None:
        self.stream = workload.stream(seed)
        self.batch = workload.batch
        self.workdir = workdir
        self.pending: collections.deque = collections.deque()
        self.written = 0
        self.refill_s = 0.0  # time spent generating after set-up

    def refill(self) -> list[str]:
        import gen

        texts = []
        for _ in range(self.batch):
            item = next(self.stream)
            text = gen.document_text(item.document)
            item.document.clear()  # the text on disk is the input from here on
            path = os.path.join(self.workdir, f"{self.written:06d}.net")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.pending.append((item, path))
            self.written += 1
            texts.append(text)
        return texts

    def next(self):
        if not self.pending:
            start = time.perf_counter()
            self.refill()
            self.refill_s += time.perf_counter() - start
        return self.pending.popleft()


SETUP_REPEATS = 15
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import orchnet, orchnet.cli; print(time.perf_counter() - start)"
)


def set_up(workload, seed: int, workdir: str):
    """Set-up is importing the package in a fresh interpreter, then generating
    and writing the first batch of documents.  It is done SETUP_REPEATS
    times, and the caller reports the median of the times returned; the
    digest identifies the inputs."""
    import gen

    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        start = time.perf_counter()
        inputs = Inputs(workload, seed, workdir)
        texts = inputs.refill()
        times.append(float(probe.stdout) + time.perf_counter() - start)
    return inputs, times, gen.digest(texts)


# ---------------------------------------------------------------------------
# The closed loop: ops run for --seconds and at least the workload's
# ``min_ops`` of them, so that the 90th percentile has ten samples beyond
# it; no op starts after MAX_LOOP_S.

MAX_LOOP_S = 50.0
# On a shared virtual machine the CPU's speed can drift by a quarter from
# one second to the next.  A fixed pure-Python loop, timed between ops every
# PROBE_EVERY_S, tracks that drift, and the gated op time is expressed in
# units of it.
PROBE_EVERY_S = 0.25
PROBE_LOOPS = 50_000


def reference_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def run_ops(workload, inputs: Inputs, seconds: float, ops: int | None, tracer):
    from workloads import WrongAnswer

    # each op starts cold, as one CLI call per document would: memo tables
    # the package keeps across calls are emptied between ops, and the
    # garbage of the last op is collected before the next one starts
    caches = [
        value.cache_clear
        for name, module in sorted(sys.modules.items())
        if name == "orchnet" or name.startswith("orchnet.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]

    def cold() -> None:
        for clear in caches:
            clear()
        gc.collect()

    records = []
    wrong = []
    # what the benchmark itself holds should not slow the package's garbage
    # collections: a CLI process would not have it
    gc.collect()
    gc.freeze()
    probes = [reference_s()]
    loop_start = last_probe = time.perf_counter()
    for i in itertools.count():
        if ops is not None:
            if i >= ops:
                break
        else:
            spent = time.perf_counter() - loop_start - inputs.refill_s
            if spent >= MAX_LOOP_S or (spent >= seconds and i >= workload.min_ops):
                break
        item, path = inputs.next()
        # in a traced run every other document is also taken through
        # untraced, for the overhead, before or after the traced pass in turn
        twin = tracer is not None and i % 2 == 0
        untraced_s = None
        if twin and i % 4:
            untraced_s = _attempt(workload, item, path)[3]
            cold()
        if tracer is not None:
            tracer.begin_op(i)
        status, error, result, elapsed, text = _attempt(workload, item, path)
        if tracer is not None:
            tracer.end_op()
        if twin and not i % 4:
            cold()
            untraced_s = _attempt(workload, item, path)[3]
        if status == "ok":
            try:
                workload.check(item, text, result)
            except WrongAnswer as exc:
                wrong.append(str(exc))
        cold()
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(reference_s())
            last_probe = time.perf_counter()
        records.append(
            {
                "op": i,
                "name": item.name,
                "size": item.size,
                "status": status,
                "error": error,
                "seconds": elapsed,
                "untraced_seconds": untraced_s,
                "steps": result.steps if result is not None else 0,
                "facts": result.facts if result is not None else {},
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    return records, probes, wrong


def _attempt(workload, item, path):
    """Take one document through the op under the per-op time limit."""
    from workloads import Undecided

    status, error, result, text = "ok", None, None, None
    signal.setitimer(signal.ITIMER_REAL, workload.op_limit_s)
    start = time.perf_counter()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        result = workload.op(item, text)
    except Undecided:
        status = "undecided"
    except OpTimeout:
        status, error = "failed", "OpTimeout"
    except RecursionError:
        status, error = "failed", "RecursionError"
    except Exception as exc:  # every other raise is a failed op, tallied by type
        status, error = "failed", f"{type(exc).__name__}: {str(exc)[:120]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, error, result, time.perf_counter() - start, text


def _quantiles(values):
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


# The end-to-end metrics BENCHMARK.json gates; the others are reported only.
# A median or a 90th percentile of ops whose times span three orders of
# magnitude jumps between size groups from seed to seed, and a whole-run
# rate is swung by a single heavy op; the geometric mean moves with every
# op, and in units of the reference loop it no longer moves with the
# machine's drift.
GATED = ("op_geomean_ref", "setup_s")


def _geomean(values) -> float:
    return math.exp(statistics.fmean(map(math.log, values)))


def end_to_end_metrics(workload, records, probes, setup_s: float) -> tuple[dict, dict]:
    limit = workload.op_limit_s
    attempted = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    undecided = sum(r["status"] == "undecided" for r in records)
    # a failed op misses any latency limit: it counts at the op time limit
    latencies = sorted(limit if r["status"] == "failed" else r["seconds"] for r in records)
    p50, p90 = _quantiles(latencies)
    busy = sum(r["seconds"] for r in records)
    steps = sum(r["steps"] for r in records)
    tally: dict[str, int] = {}
    for r in records:
        if r["error"]:
            kind = r["error"].split(":")[0]
            tally[kind] = tally.get(kind, 0) + 1
    metrics = {
        "op_geomean_ref": (_geomean(latencies) / _geomean(probes), "ref"),
        "op_geomean_s": (_geomean(latencies), "s"),
        "op_p50_s": (p50, "s"),
        "op_p90_s": (p90, "s"),
        "ops_per_s": ((attempted - failed) / busy, "ops/s"),
        "steps_per_s": (steps / busy, "steps/s"),
        "failed_share": (failed / attempted, "ratio"),
        "undecided_share": (undecided / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if not steps:
        del metrics["steps_per_s"]  # only the race workload runs a race per op
    extra = {
        "attempted": attempted,
        "failed": failed,
        "undecided": undecided,
        "samples_beyond_p90": sum(x > p90 for x in latencies),
        "busy_s": busy,
        "failures_by_type": tally,
        "reference_s": _geomean(probes),
        "reference_probes": len(probes),
    }
    return metrics, extra


def per_layer_metrics(tracer, records, overhead: float) -> dict:
    totals = tracer.layer_totals()
    metrics = {}
    for name, layer in sorted(totals.items()):
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.self_s"] = (layer["self_s"], "s")
        for key in sorted(set(layer) - {"calls", "self_s", "total_s"}):
            metrics[f"{name}.{key}"] = (layer[key], "count")
    race = totals["timed.execute"]
    metrics["timed.steps_per_s"] = (race["steps"] / race["total_s"] if race["total_s"] else 0.0, "steps/s")

    # the oracle's work counts, read off its reports
    oracle = [r for r in records if r["status"] == "ok" and "members" in r["facts"]]
    members = sum(r["facts"]["members"] for r in oracle)
    evals = tracer.calls_under("timed.end_to_end", "monotony.brute_force_monotony")
    metrics["monotony.evals_per_member"] = (evals / members if members else 0.0, "ratio")
    all_pairs = [r["facts"] for r in oracle if r["facts"]["mode"] == "all_pairs"]
    pairs = sum(f["pairs"] for f in all_pairs)
    candidates = sum(f["members"] * (f["members"] - 1) for f in all_pairs)
    metrics["monotony.pair_yield"] = (pairs / candidates if candidates else 0.0, "ratio")
    clean = [r for r in oracle if r["facts"]["clean"]]
    metrics["monotony.clean_nets.pairs"] = (sum(r["facts"]["pairs"] for r in clean), "count")
    metrics["monotony.clean_nets.end_to_end_calls"] = (
        tracer.calls_under(
            "timed.end_to_end", "monotony.brute_force_monotony", ops={r["op"] for r in clean}
        ),
        "count",
    )
    top = sum(s[5] - s[4] for s in tracer.spans if s is not None and s[2] < 0)
    metrics["op.unattributed_s"] = (sum(r["seconds"] for r in records) - top, "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def report_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, f"report-{workload}-{seed}-trace{trace}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import orchnet
        import workloads
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(orchnet.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"orchnet was imported from {orchnet.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        inputs, setup_times, digest = set_up(workload, args.seed, workdir)
        setup_s = statistics.median(setup_times)
        problems = preflight()

        tracer = None
        defects = {}
        if args.trace:
            from spans import Tracer

            defects = workloads.known_defects()

            tracer = Tracer()
            tracer.install()
        signal.signal(signal.SIGALRM, _alarm)
        records, probes, wrong = run_ops(workload, inputs, args.seconds, args.ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, extra = end_to_end_metrics(workload, records, probes, setup_s)
    wrong += [f"known defect {name}: {outcome}" for name, outcome in defects.items()
              if outcome.startswith("wrong answer")]
    extra.update(digest=digest, seed=args.seed, preflight_problems=problems, wrong_answers=wrong,
                 known_defects=defects, setup_times_s=setup_times)
    if args.trace:
        # failed ops are left out: the wrappers' stack frames make a deep race
        # raise RecursionError a little sooner
        done = [r for r in records if r["status"] != "failed" and r["untraced_seconds"]]
        untraced = sum(r["untraced_seconds"] for r in done)
        overhead = sum(r["seconds"] for r in done) / untraced - 1 if untraced else 0.0
        layers = per_layer_metrics(tracer, records, overhead)
        extra["absent_boundaries"] = tracer.absent
        extra["uncounted"] = sorted(tracer.uncounted)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        shown = layers
    else:
        layers = {}
        shown = {name: e2e[name] for name in GATED}
    correct = not problems and not wrong

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "extra": extra,
        "ops": records,
    }
    with open(report_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  digest {digest[:16]}  trace {args.trace}")
    if args.trace:
        print("  (end-to-end figures below are taken with tracing on)")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    print(f"  ops {extra['attempted']}, {extra['samples_beyond_p90']} beyond p90, "
          f"failures {extra['failures_by_type'] or 'none'}")
    if defects:
        print("  known defects, outside the timed ops: "
              + ", ".join(f"{name} {outcome}" for name, outcome in defects.items()))
    if args.trace and tracer.absent:
        print(f"  absent boundaries (read as 0): {', '.join(tracer.absent)}")
    if args.trace and tracer.uncounted:
        print(f"  counts missed where a return value changed shape: {', '.join(sorted(tracer.uncounted))}")
    for line in problems + wrong:
        print(f"  WRONG: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
