"""Command line interface.

Every subcommand reads one ``.net`` document (a file path, or
``corpus:NAME`` for a bundled example), prints a single JSON report to
stdout, and exits with:

* 0: the document is valid / the checked property holds
* 1: the checked property is violated (a witness is in the report)
* 2: the input could not be parsed or is not a valid net, or stdout was
  closed before the report was written
* 3: undecided (an exploration cap was hit, or synthesis found no witness)

Reports are deterministic: keys are sorted, sets are emitted in sorted
order, and nothing environment-dependent (timestamps, absolute paths) is
included, so the same invocation always produces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .attributes import ExtendedDate, format_date, value_sort_key, value_to_json
from .document import (
    NetDocument,
    build,
    build_carrier,
    document_from_orchnet,
    document_net,
    document_to_json,
    load,
    load_corpus,
)
from .errors import (
    CapExceededError,
    DocumentError,
    EvaluationError,
    NetStructureError,
    SynthesisError,
)
from .monotony import (
    GridWitness,
    brute_force_monotony,
    check_global_condition,
    conditional_monotony_check,
    structural_check,
    synthesize_counterexample,
)
from .nets import WorkflowNet, is_sound, occurrence_check
from .timed import EndToEnd, FamilyAssignment, resolutions

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3

# every outcome a subcommand returns; simulate and unfold end "valid"
EXIT_CODES = {
    **dict.fromkeys(("valid", "holds", "monotonic", "conditionally_monotonic"), EXIT_OK),
    **dict.fromkeys(("invalid-net", "unsound", "violated", "non_monotonic"), EXIT_VIOLATION),
    "undecided": EXIT_UNDECIDED,
}


def _load_document(ref: str) -> NetDocument:
    if ref.startswith("corpus:"):
        return load_corpus(ref[len("corpus:") :])
    return load(ref)


def _check_omega(omega: int, count: int) -> None:
    if not 0 <= omega < count:
        raise DocumentError([f"omega {omega} out of range; document declares {count} scenarios"])


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))
    sys.stdout.flush()  # a closed pipe must fail here, inside main, not at exit


def _dates(dates: dict[str, ExtendedDate]) -> dict[str, str]:
    return {node: format_date(d) for node, d in sorted(dates.items())}


def _value_list(values) -> list:
    return [value_to_json(v) for v in sorted(values, key=value_sort_key)]


def _run_report(summary: EndToEnd) -> dict:
    run = summary.run
    return {
        "fired": list(run.step_order),
        "occurring": sorted(run.occurring),
        "stalled": run.stalled,
        "dates": _dates(run.dates),
        "ties": [sorted(t) for t in run.tie_events],
        "end_to_end": format_date(summary.latency),
        "values": _value_list(summary.values),
    }


def _assignment_report(fa: FamilyAssignment) -> dict:
    return {
        "classes": {
            cls: (format_date(v) if v is not None else None) for cls, v in fa.class_values
        },
        "places": {
            p: (format_date(v) if v is not None else None) for p, v in fa.place_values
        },
    }


def _witness_report(w: GridWitness, resolutions: bool) -> dict:
    report = {
        "hi": _assignment_report(w.hi),
        "lo": _assignment_report(w.lo),
        "omega": w.omega,
        "latency_hi": format_date(w.latency_hi),
        "latency_lo": format_date(w.latency_lo),
    }
    if resolutions:
        report["resolution_hi"] = list(w.resolution_hi)
        report["resolution_lo"] = list(w.resolution_lo)
    return report


# ---------------------------------------------------------------------------
# Subcommands: each returns its report and its outcome, a key of EXIT_CODES


def _cmd_validate(args) -> tuple[dict, str]:
    doc = _load_document(args.file)
    net = document_net(doc)
    report: dict = {"command": "validate", "file": args.file, "kind": doc.kind}

    if doc.kind == "occurrence":
        check = occurrence_check(net)
        if not check.ok:
            report["status"] = "invalid-net"
            report["diagnostics"] = [
                {"condition": d.condition, "witness": sorted(d.witness), "message": d.message}
                for d in check.diagnostics
            ]
            return report, "invalid-net"
        build(doc, net)  # attribute placement; raises DocumentError on problems
        report["status"] = "valid"
        report["conditions"] = [
            "partial_order", "unique_producer", "initial_marking", "no_self_conflict",
        ]
        return report, "valid"

    try:
        wf = WorkflowNet.from_net(net)
    except NetStructureError as exc:
        report["status"] = "invalid-net"
        report["diagnostics"] = [{"condition": "workflow_shape", "message": str(exc)}]
        return report, "invalid-net"
    verdict = is_sound(wf, marking_cap=args.cap)
    report["markings_explored"] = verdict.markings_explored
    if verdict.status == "sound":
        build(doc, wf)
        report["status"] = "valid"
        report["soundness"] = "sound"
        return report, "valid"
    report["soundness"] = report["status"] = verdict.status  # "unsound" or "undecided"
    report["issues"] = [
        {
            "kind": issue.kind,
            "marking": sorted(issue.marking) if issue.marking is not None else None,
            "transition": issue.transition,
            "message": issue.message,
        }
        for issue in verdict.issues
    ]
    return report, verdict.status


def _cmd_unfold(args) -> tuple[dict, str]:
    doc = _load_document(args.file)
    unfolding = build(doc).unfolding
    unf, phi = unfolding.unfolding, unfolding.morphism.node_map
    copies: dict[str, int] = {}
    for e in unf.transitions:
        copies[phi[e]] = copies.get(phi[e], 0) + 1
    report = {
        "command": "unfold",
        "file": args.file,
        "kind": doc.kind,
        "conditions": [{"id": c, "carrier": phi[c]} for c in sorted(unf.places)],
        "events": [{"id": e, "carrier": phi[e]} for e in sorted(unf.transitions)],
        "arcs": [[a, b] for a, b in sorted(unf.flow)],
        "counts": {"conditions": len(unf.places), "events": len(unf.transitions)},
        "copies": dict(sorted(copies.items())),
    }
    return report, "valid"


def _cmd_simulate(args) -> tuple[dict, str]:
    doc = _load_document(args.file)
    built = build(doc)
    orch = built.pre.baseline()
    _check_omega(args.omega, orch.omega_count)
    report = {
        "command": "simulate",
        "file": args.file,
        "kind": doc.kind,
        "omega": args.omega,
        "tie": args.tie,
        "runs": [_run_report(r) for r in resolutions(orch, args.omega, args.tie)],
    }
    return report, "valid"


def _cmd_check_structural(args) -> tuple[dict, str]:
    doc = _load_document(args.file)
    carrier = build_carrier(doc)
    result = structural_check(carrier)
    report = {
        "command": "check-structural",
        "file": args.file,
        "satisfied": result.satisfied,
        "clusters_checked": result.clusters_checked,
        "violations": [
            {"cluster": list(v.cluster), "racing_pairs": [list(p) for p in v.pairs]}
            for v in result.violations
        ],
    }
    return report, "holds" if result.satisfied else "violated"


def _cmd_check_global(args) -> tuple[dict, str]:
    doc = _load_document(args.file)
    built = build(doc)
    orch = built.pre.baseline()
    _check_omega(args.omega, orch.omega_count)
    result = check_global_condition(orch, args.omega, tie_break=args.tie, config_cap=args.cap)
    report = {
        "command": "check-global",
        "file": args.file,
        "omega": args.omega,
        "status": result.status,
        "occurring_latency": format_date(result.occurring_latency)
        if result.occurring_latency is not None
        else None,
        "configurations_checked": result.configurations_checked,
        "witnesses": [
            {"configuration": sorted(w.configuration), "latency": format_date(w.latency)}
            for w in result.witnesses
        ],
    }
    if result.note:
        report["note"] = result.note
    return report, result.status


def _cmd_oracle(args) -> tuple[dict, str]:
    doc = _load_document(args.file)
    built = build(doc)
    result = brute_force_monotony(
        built.pre, tie_break=args.tie, mode=args.mode, eval_cap=args.cap
    )
    report = {
        "command": "oracle",
        "file": args.file,
        "mode": args.mode,
        "tie": args.tie,
        "outcome": result.outcome,
        "grid_relative": result.grid_relative,
        "members_checked": result.members_checked,
        "pairs_checked": result.pairs_checked,
    }
    if result.note:
        report["note"] = result.note
    if result.witness is not None:
        report["witness"] = _witness_report(result.witness, resolutions=True)
    return report, result.outcome


def _cmd_counterexample(args) -> tuple[dict, str]:
    doc = _load_document(args.file)
    built = build(doc)
    _check_omega(args.omega, doc.omega_count)
    structural = structural_check(built.carrier)
    report: dict = {
        "command": "counterexample",
        "file": args.file,
        "omega": args.omega,
        "structural_satisfied": structural.satisfied,
    }
    if structural.satisfied:
        report["outcome"] = "monotonic"
        report["reason"] = "every cluster fuses postsets; raising latencies cannot help"
        return report, "monotonic"
    try:
        outcome = synthesize_counterexample(
            built.carrier, built.specs, args.omega, tie_break=args.tie
        )
    except SynthesisError as exc:
        report["outcome"] = "undecided"
        report["reason"] = str(exc)
        return report, "undecided"
    report["outcome"] = "non_monotonic"
    report["cluster"] = list(outcome.cluster)
    report["pair"] = {
        "winner": outcome.pair[0],
        "competitor": outcome.pair[1],
        "carrier": list(outcome.pair_labels),
    }
    report["forced_prefix"] = sorted(outcome.cone_configuration)
    report["residual_place"] = outcome.residual_place
    report["starved_events"] = list(outcome.starved_events)
    report["alternative"] = sorted(outcome.alternative)
    report["alternative_latency"] = format_date(outcome.alternative_latency)
    report["verification"] = {
        "accepted": outcome.verification.accepted,
        "latency_lo": format_date(outcome.verification.latency_lo),
        "latency_hi": format_date(outcome.verification.latency_hi),
    }
    report["lo"] = document_to_json(document_from_orchnet(outcome.lo))
    report["hi"] = document_to_json(document_from_orchnet(outcome.hi))
    return report, "non_monotonic"


def _cmd_check_conditional(args) -> tuple[dict, str]:
    doc = _load_document(args.file)
    built = build(doc)
    result = conditional_monotony_check(
        built.pre, tie_break=args.tie, force_brute=args.force_brute, eval_cap=args.cap
    )
    report = {
        "command": "check-conditional",
        "file": args.file,
        "outcome": result.outcome,
        "path": result.path,
        "grid_relative": result.grid_relative,
    }
    if result.note:
        report["note"] = result.note
    if result.witness is not None:
        w = result.witness
        report["witness"] = _witness_report(w, resolutions=args.tie == "all")
        report["witness"]["values"] = [value_to_json(v) for v in w.values]
    return report, result.outcome


# ---------------------------------------------------------------------------


def _cap(text: str) -> int:
    """A cap: a non-negative int."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orchnet",
        description="Timed occurrence-net orchestrations: simulation and monotony analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="path to a .net document, or corpus:NAME")
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, "check document shape and net conditions")
    p.add_argument("--cap", type=_cap, default=1_000_000, help="marking exploration cap")

    add("unfold", _cmd_unfold, "print the unfolding and its folding map")

    p = add("simulate", _cmd_simulate, "run the race policy for one scenario")
    p.add_argument("--omega", type=int, required=True, help="scenario index")
    p.add_argument("--tie", choices=("lex", "all"), default="lex")

    add("check-structural", _cmd_check_structural, "per-cluster postset-equality condition")

    p = add("check-global", _cmd_check_global, "occurring configuration is slowest-case optimal")
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--tie", choices=("lex", "all"), default="lex")
    p.add_argument("--cap", type=_cap, default=100_000, help="configuration enumeration cap")

    p = add("oracle", _cmd_oracle, "brute-force monotony over the declared grids")
    p.add_argument("--mode", choices=("all_pairs", "adjacent"), default="all_pairs")
    p.add_argument("--tie", choices=("lex", "all"), default="lex")
    p.add_argument("--cap", type=_cap, default=1_000_000, help="member evaluation cap")

    p = add("counterexample", _cmd_counterexample, "synthesize a verified monotony violation")
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--tie", choices=("lex", "all"), default="lex")

    p = add("check-conditional", _cmd_check_conditional, "monotony for equal-value deliveries")
    p.add_argument("--tie", choices=("lex", "all"), default="lex")
    p.add_argument("--force-brute", action="store_true", help="skip the distinct-values fast path")
    p.add_argument("--cap", type=_cap, default=1_000_000, help="member evaluation cap")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull
        # so that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


def _run(args) -> int:
    """Run the subcommand and print its report: the one place where a
    report is written and an exit code chosen."""
    try:
        report, outcome = args.handler(args)
        code = EXIT_CODES[outcome]
    except DocumentError as exc:
        report = {"error": {"kind": "document", "problems": list(exc.problems)}}
        code = EXIT_INPUT
    except (NetStructureError, EvaluationError) as exc:
        report = {"error": {"kind": "net", "message": str(exc)}}
        code = EXIT_INPUT
    except CapExceededError as exc:
        report = {"error": {"kind": "cap", "message": str(exc)}}
        code = EXIT_UNDECIDED
    except SynthesisError as exc:
        report = {"error": {"kind": "synthesis", "message": str(exc)}}
        code = EXIT_UNDECIDED
    _emit(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
