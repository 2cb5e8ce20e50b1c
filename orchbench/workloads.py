"""The three workloads: inputs, the op each input drives, and its check.

An op takes one ``.net`` document through the library calls that the
matching CLI subcommand makes, looking each function up on its module at
call time so that the tracer's wrappers are seen.  ``check`` compares the
op's answer with the one known from the generator; a mismatch raises
``WrongAnswer`` and fails the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import gen

import orchnet.document as document
import orchnet.errors as errors
import orchnet.monotony as monotony
import orchnet.timed as timed

ALL_PAIRS_LIMIT = 1024  # failing grid nets use all_pairs up to this many members


class WrongAnswer(Exception):
    pass


class Undecided(Exception):
    """A legitimate "undecided": a cap was hit or synthesis gave up."""


@dataclass
class Result:
    answer: object  # what ``check`` needs; dropped once the op is checked
    steps: int = 0  # transitions fired by the op's own race, where it runs one
    facts: dict = field(default_factory=dict)  # work counts kept in the report


def _date(text: str) -> Fraction | None:
    """An orchnet date string as a Fraction; None stands for infinity."""
    return None if text == "inf" else Fraction(text)


def _dominates(hi: dict, lo: dict) -> bool:
    for key, value in lo.items():
        a, b = _date(hi[key]), _date(value)
        if a is not None and (b is None or a < b):
            return False
    return hi.keys() == lo.keys()


# ---------------------------------------------------------------------------
# grid-oracle: `orchnet oracle --mode adjacent|all_pairs`




def grid_op(item, text: str) -> Result:
    built = document.build(document.loads(text))
    members = built.pre.member_count()
    mode = "adjacent" if item.clean or members > ALL_PAIRS_LIMIT else "all_pairs"
    report = monotony.brute_force_monotony(built.pre, mode=mode)
    if report.outcome == "undecided":
        raise Undecided(report.note)
    facts = {
        "clean": item.clean,
        "mode": mode,
        "members": report.members_checked,
        "pairs": report.pairs_checked,
    }
    return Result(answer=report, facts=facts)


def grid_check(item, text: str, result: Result) -> None:
    report = result.answer
    if item.clean:
        # the cluster condition holds by construction: monotone by theorem
        if report.outcome != "monotonic":
            raise WrongAnswer(f"{item.name}: clean net reported {report.outcome}")
        return
    if report.outcome != "non_monotonic" or report.witness is None:
        raise WrongAnswer(f"{item.name}: failing net reported {report.outcome}")
    w = report.witness

    def values(member):
        return {c: str(v) for c, v in member.class_values}

    if not _dominates(values(w.hi), values(w.lo)):
        raise WrongAnswer(f"{item.name}: witness hi does not dominate lo")
    # replay on members instantiated afresh from a second build
    pre = document.build(document.loads(text)).pre
    e_hi = timed.end_to_end(pre.instantiate(w.hi), w.omega).latency
    e_lo = timed.end_to_end(pre.instantiate(w.lo), w.omega).latency
    if not (e_hi < e_lo and e_hi == w.latency_hi and e_lo == w.latency_lo):
        raise WrongAnswer(f"{item.name}: witness replays as {e_hi} vs {e_lo}")


# ---------------------------------------------------------------------------
# witness-synthesis: `orchnet counterexample --omega 0`


def synthesis_op(item, text: str) -> Result:
    built = document.build(document.loads(text))
    structural = monotony.structural_check(built.carrier)
    if structural.satisfied:
        return Result(answer=("monotonic", None))
    try:
        outcome = monotony.synthesize_counterexample(built.carrier, built.specs, 0)
    except errors.SynthesisError as exc:
        raise Undecided(str(exc)) from exc
    lo = document.document_to_json(document.document_from_orchnet(outcome.lo))
    hi = document.document_to_json(document.document_from_orchnet(outcome.hi))
    return Result(answer=("non_monotonic", (outcome, lo, hi)))


def _spec_at(spec: dict, omega: int) -> str:
    if spec["kind"] == "infinite":
        return "inf"
    if spec["kind"] == "per_omega":
        return spec["values"][omega]
    return spec["value"]  # const; synthesis emits no expression latencies


def _latencies(doc: dict, omega: int) -> dict:
    """Every latency and initial date of a witness document at ``omega``."""
    out = {t["id"]: _spec_at(t["latency"], omega) for t in doc["transitions"]}
    for p in doc["places"]:
        if "initial_date" in p:
            out[p["id"]] = _spec_at(p["initial_date"], omega)
    return out


def synthesis_check(item, text: str, result: Result) -> None:
    verdict, found = result.answer
    if verdict != "non_monotonic":
        # every net here has a differing-postset choice by construction
        raise WrongAnswer(f"{item.name}: structure-failing net reported {verdict}")
    outcome, lo, hi = found
    if not outcome.verification.accepted:
        raise WrongAnswer(f"{item.name}: returned an unverified witness")
    if not _dominates(_latencies(hi, outcome.omega), _latencies(lo, outcome.omega)):
        raise WrongAnswer(f"{item.name}: witness hi does not dominate lo")
    # replay from the witness documents, as a user of the report would
    e = {}
    for side, doc in (("lo", lo), ("hi", hi)):
        orch = document.build(document.document_from_json(doc)).pre.baseline()
        e[side] = timed.end_to_end(orch, outcome.omega).latency
    if not e["hi"] < e["lo"]:
        raise WrongAnswer(f"{item.name}: witness replays as {e['hi']} vs {e['lo']}")


# ---------------------------------------------------------------------------
# race-scale: `orchnet simulate --omega k`


def race_op(item, text: str) -> Result:
    built = document.build(document.loads(text))
    orch = built.pre.baseline()
    run = timed.execute(orch, item.omega)
    summary = timed.summarize_run(orch, run)
    return Result(answer=(run, summary), steps=len(run.step_order))


def race_check(item, text: str, result: Result) -> None:
    run, summary = result.answer
    got = "inf" if not summary.latency.is_finite else str(summary.latency)
    if _date(got) != _date(item.latency) or len(run.step_order) != item.fired:
        raise WrongAnswer(
            f"{item.name}: end-to-end {got} after {len(run.step_order)} steps, "
            f"expected {item.latency} after {item.fired}"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    stream: object  # seed -> endless iterator of generated inputs
    op: object
    check: object
    batch: int  # documents generated at a time; set-up generates the first batch
    op_limit_s: float  # per-op time limit; an op still running then has failed
    min_ops: int  # a run goes on past --seconds until it has attempted this many


# Each per-op limit is far above the slowest op seen on the workload (about
# 14 s on grid-oracle, 3 s on race-scale, 2.4 s on witness-synthesis), so an
# op that hits it has hung rather than run slow on a busy host.
WORKLOADS = {
    "grid-oracle": Workload(
        "grid-oracle", gen.grid_oracle_stream, grid_op, grid_check, 200, 60.0, 100
    ),
    "witness-synthesis": Workload(
        "witness-synthesis", gen.synthesis_stream, synthesis_op, synthesis_check, 264, 60.0, 200
    ),
    "race-scale": Workload("race-scale", gen.race_stream, race_op, race_check, 44, 60.0, 100),
}


def known_defects() -> dict:
    """Inputs that fail at the time of writing, taken through once each.

    They are kept out of the timed workloads, where every op has to
    complete; this shows whether each still fails.  The outcome is "ok",
    the name of the exception raised, or "wrong answer: ..." once an input
    no longer raises but gives the wrong result.
    """
    probes = {
        # the race recurses once per step
        "race_chain_1000": gen.race_net(random.Random(0), "chain", 1000, "defect-chain1000"),
    }
    outcomes = {}
    for name, item in probes.items():
        text = gen.document_text(item.document)
        try:
            race_check(item, text, race_op(item, text))
            outcomes[name] = "ok"
        except WrongAnswer as exc:
            outcomes[name] = f"wrong answer: {exc}"
        except Exception as exc:
            outcomes[name] = type(exc).__name__
    return outcomes
