"""CLI contract: exit codes, report shapes, determinism, witness replay."""

import json
import os
import subprocess
import sys

import pytest

from orchnet import build, loads, verify_counterexample
from orchnet.cli import main
from orchnet.document import corpus_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# validate


def test_validate_corpus_files(capsys):
    for name in ("branch-race", "channel-grab", "choice-join", "overlap-cluster"):
        code, report = run_cli(capsys, "validate", f"corpus:{name}")
        assert code == 0
        assert report["status"] == "valid"


def test_validate_reports_occurrence_diagnostics(capsys, tmp_path):
    doc = {
        "format_version": 1,
        "kind": "occurrence",
        "omega_count": 1,
        "places": [{"id": "p"}, {"id": "q"}],
        "transitions": [
            {"id": "a", "pre": ["p"], "post": ["q"], "latency": {"kind": "const", "value": "1"}},
            {"id": "b", "pre": ["p"], "post": ["q"], "latency": {"kind": "const", "value": "1"}},
        ],
    }
    path = tmp_path / "twice.net"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert report["status"] == "invalid-net"
    assert any(d["condition"] == "unique_producer" for d in report["diagnostics"])


def test_validate_unsound_workflow(capsys, tmp_path):
    doc = {
        "format_version": 1,
        "kind": "workflow",
        "omega_count": 1,
        "places": [{"id": "i"}, {"id": "c"}, {"id": "p1"}, {"id": "p2"}, {"id": "o"}],
        "transitions": [
            {"id": "s", "pre": ["i"], "post": ["c"], "latency": {"kind": "const", "value": "1"}},
            {"id": "a", "pre": ["c"], "post": ["p1"], "latency": {"kind": "const", "value": "1"}},
            {"id": "b", "pre": ["c"], "post": ["p2"], "latency": {"kind": "const", "value": "1"}},
            {"id": "j", "pre": ["p1", "p2"], "post": ["o"], "latency": {"kind": "const", "value": "1"}},
        ],
    }
    path = tmp_path / "stuck.net"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert report["status"] == "unsound"
    assert any(i["kind"] == "cannot_complete" for i in report["issues"])


@pytest.mark.parametrize(
    "field, spec, problem",
    [
        (
            "latency",
            {"kind": "expr", "expr": {"op": "input", "index": 3}},
            "transitions[0].latency.expr.index: input 3 out of range for 1 inputs",
        ),
        (
            "initial_date",
            {"kind": "expr", "expr": {"op": "const", "value": "1"}},
            "places[0].initial_date.kind: an initial date cannot be an expression (it has no inputs)",
        ),
    ],
)
def test_a_document_that_cannot_run_is_an_input_error(capsys, tmp_path, field, spec, problem):
    doc = {
        "format_version": 1,
        "kind": "occurrence",
        "places": [{"id": "p"}, {"id": "q"}],
        "transitions": [
            {"id": "t", "pre": ["p"], "post": ["q"], "latency": {"kind": "const", "value": "1"}}
        ],
    }
    (doc["transitions"] if field == "latency" else doc["places"])[0][field] = spec
    path = tmp_path / "never.net"
    path.write_text(json.dumps(doc))
    for command in (["validate"], ["simulate", "--omega", "0"]):
        code, report = run_cli(capsys, *command, str(path))
        assert code == 2
        assert report["error"]["problems"] == [problem]


@pytest.mark.parametrize(
    "field, spec, problem",
    [
        (
            "guard",
            {
                "op": "lt",
                "left": {"kind": "select", "index": 0},
                "right": {"kind": "const", "value": {"kind": "atom", "value": "z"}},
            },
            "transitions[0].guard.right.value: guard lt needs a number, got z",
        ),
        (
            "latency",
            {"kind": "expr", "expr": {"op": "input", "index": 0}},
            "transitions[0].latency.expr.index: input 0 reads minimal place 'p', "
            "whose value p is not a number",
        ),
        (
            "guard",
            {
                "op": "lt",
                "left": {"kind": "select", "index": 0},
                "right": {"kind": "const", "value": {"kind": "num", "value": "1"}},
            },
            "transitions[0].guard.left.index: select 0 reads minimal place 'p', "
            "whose value p is not a number",
        ),
    ],
)
def test_a_document_that_can_never_evaluate_fails_validate(capsys, tmp_path, field, spec, problem):
    doc = {
        "format_version": 1,
        "kind": "occurrence",
        "places": [{"id": "p"}, {"id": "q"}],
        "transitions": [
            {"id": "t", "pre": ["p"], "post": ["q"], "latency": {"kind": "const", "value": "1"}}
        ],
    }
    doc["transitions"][0][field] = spec
    path = tmp_path / "never.net"
    path.write_text(json.dumps(doc))
    for command in (["validate"], ["simulate", "--omega", "0"]):
        code, report = run_cli(capsys, *command, str(path))
        assert code == 2
        assert report["error"]["problems"] == [problem]


def test_validate_undecided_under_a_tiny_cap(capsys):
    code, report = run_cli(capsys, "validate", "corpus:choice-join", "--cap", "2")
    assert code == 3
    assert report["status"] == "undecided"


@pytest.mark.parametrize(
    "name, expected",
    [
        (name, {"net_from_arcs": 1, "validate_occurrence_net": 1, "compute_relations": 1})
        for name in ("branch-race", "channel-grab", "overlap-cluster")
    ]
    # the carrier, then its unfolding; soundness once, under --cap
    + [("choice-join", {"net_from_arcs": 2, "is_sound": 1})],
)
def test_validate_builds_and_checks_its_net_once(capsys, monkeypatch, name, expected):
    import orchnet.nets as nets
    from orchnet import unfolding

    calls: dict[str, list] = {}
    modules = [m for n, m in sys.modules.items() if n == "orchnet" or n.startswith("orchnet.")]
    for fname in ("net_from_arcs", "validate_occurrence_net", "compute_relations", "is_sound"):
        real = getattr(nets, fname)

        def counting(*args, _real=real, _name=fname, **kwargs):
            calls.setdefault(_name, []).append(kwargs.get("marking_cap"))
            return _real(*args, **kwargs)

        # every binding, so that ``from .nets import ...`` elsewhere is counted too
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    nets.occurrence_check.cache_clear()
    unfolding._unfold.cache_clear()
    code, report = run_cli(capsys, "validate", f"corpus:{name}", "--cap", "5000")
    assert (code, report["status"]) == (0, "valid")
    assert {k: len(calls.get(k, ())) for k in expected} == expected
    assert calls.get("is_sound", [5000]) == [5000]


def test_missing_file_is_an_input_error(capsys):
    code, report = run_cli(capsys, "validate", "no-such-file.net")
    assert code == 2
    assert report["error"]["kind"] == "document"


def test_bad_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "broken.net"
    path.write_text("{")
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert any("invalid JSON" in p for p in report["error"]["problems"])


def _input_error(capsys, *argv):
    """The error of a run that must end in one error report, exit 2."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    return json.loads(out)["error"]  # one JSON object, nothing after it


def _document_error(capsys, path):
    """The problems of a run that must end in one document error report."""
    error = _input_error(capsys, "validate", str(path))
    assert error["kind"] == "document"
    return error["problems"]


def test_a_document_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.net"
    path.write_bytes(b"\xff")
    (problem,) = _document_error(capsys, path)
    assert problem.startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")


def test_an_integer_past_the_digit_limit_is_invalid_json(capsys, tmp_path):
    doc = json.loads(corpus_text("branch-race"))
    doc["omega_count"] = "OMEGA"
    path = tmp_path / "long.net"
    path.write_text(json.dumps(doc).replace('"OMEGA"', "1" * 5000))
    (problem,) = _document_error(capsys, path)
    assert problem.startswith("invalid JSON: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("argv", [("validate",), ("simulate", "--omega", "0")])
def test_a_date_past_the_digit_limit_is_a_document_error(capsys, tmp_path, argv):
    doc = json.loads(corpus_text("branch-race"))
    for t in doc["transitions"][:2]:  # a and b
        t["latency"] = {"kind": "const", "value": "1e5000"}
    path = tmp_path / "big.net"
    path.write_text(json.dumps(doc))
    error = _input_error(capsys, argv[0], str(path), *argv[1:])
    assert error == {
        "kind": "document",
        "problems": [
            f"transitions[{i}].latency.value: bad number '1e5000': exponent too large"
            for i in (0, 1)
        ],
    }


def test_a_product_past_the_digit_limit_is_a_net_error(capsys, tmp_path):
    big = {"kind": "num", "value": "1e3000"}
    doc = {
        "format_version": 1,
        "kind": "occurrence",
        "omega_count": 1,
        "places": [
            {"id": "p", "initial_value": big},
            {"id": "q", "initial_value": big},
            {"id": "r"},
        ],
        "transitions": [
            {
                "id": "t",
                "pre": ["p", "q"],
                "post": ["r"],
                "latency": {
                    "kind": "expr",
                    "expr": {"op": "mul", "args": [{"op": "input", "index": i} for i in (0, 1)]},
                },
            }
        ],
    }
    path = tmp_path / "product.net"
    path.write_text(json.dumps(doc))
    error = _input_error(capsys, "simulate", str(path), "--omega", "0")
    assert error["kind"] == "net"
    assert error["message"].startswith("number too large to print: Exceeds the limit (4300 digits)")


def test_deeply_nested_document_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "nested.net"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert report["error"]["problems"] == ["document is nested too deeply"]


def test_unknown_corpus_name_is_an_input_error(capsys):
    code, report = run_cli(capsys, "unfold", "corpus:nope")
    assert code == 2


# ---------------------------------------------------------------------------
# unfold / simulate


def test_unfold_counts_join_copies(capsys):
    code, report = run_cli(capsys, "unfold", "corpus:choice-join")
    assert code == 0
    assert report["counts"] == {"conditions": 7, "events": 5}
    assert report["copies"] == {"a": 1, "b": 1, "c": 2, "t0": 1}


def test_unfold_of_an_occurrence_net_is_the_identity(capsys):
    code, report = run_cli(capsys, "unfold", "corpus:branch-race")
    assert code == 0
    assert all(c["id"] == c["carrier"] for c in report["conditions"])
    assert all(e["id"] == e["carrier"] for e in report["events"])


def test_simulate_scenarios(capsys):
    code, report = run_cli(capsys, "simulate", "corpus:branch-race", "--omega", "0")
    assert code == 0
    (run,) = report["runs"]
    assert run["end_to_end"] == "6"
    assert run["fired"][0] == "a"
    assert not run["stalled"]

    code, report = run_cli(capsys, "simulate", "corpus:branch-race", "--omega", "1")
    (run,) = report["runs"]
    assert run["end_to_end"] == "8"


def test_simulate_omega_out_of_range(capsys):
    code, report = run_cli(capsys, "simulate", "corpus:branch-race", "--omega", "7")
    assert code == 2
    assert "out of range" in report["error"]["problems"][0]


def test_simulate_all_ties(capsys):
    code, report = run_cli(capsys, "simulate", "corpus:branch-race", "--omega", "0", "--tie", "all")
    assert code == 0
    assert len(report["runs"]) == 1  # dates 2 vs 3: no tie to enumerate


def _chain_document(tmp_path, n):
    doc = {
        "format_version": 1,
        "kind": "occurrence",
        "omega_count": 1,
        "places": [{"id": f"p{i:04d}"} for i in range(n + 1)],
        "transitions": [
            {
                "id": f"t{i:04d}",
                "pre": [f"p{i:04d}"],
                "post": [f"p{i + 1:04d}"],
                "latency": {"kind": "const", "value": "1"},
            }
            for i in range(n)
        ],
    }
    path = tmp_path / "chain.net"
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_1500_transition_chain_simulates_and_checks(capsys, tmp_path):
    # runs of more than about 980 steps used to raise RecursionError
    path = _chain_document(tmp_path, 1_500)
    code, report = run_cli(capsys, "simulate", path, "--omega", "0")
    assert code == 0
    (run,) = report["runs"]
    assert (run["end_to_end"], len(run["fired"]), run["stalled"]) == ("1500", 1_500, False)
    code, report = run_cli(capsys, "check-global", path, "--omega", "0")
    assert code == 0
    assert (report["status"], report["occurring_latency"]) == ("holds", "1500")


def test_a_10000_transition_chain_simulates(capsys, tmp_path):
    # validation used to store every node's causal past: O(N^2) time and memory
    path = _chain_document(tmp_path, 10_000)
    code, report = run_cli(capsys, "simulate", path, "--omega", "0")
    assert code == 0
    (run,) = report["runs"]
    assert (run["end_to_end"], len(run["fired"]), run["stalled"]) == ("10000", 10_000, False)


# ---------------------------------------------------------------------------
# checkers


def test_check_structural_exit_codes(capsys):
    code, report = run_cli(capsys, "check-structural", "corpus:choice-join")
    assert code == 0 and report["satisfied"]
    code, report = run_cli(capsys, "check-structural", "corpus:branch-race")
    assert code == 1 and not report["satisfied"]
    assert report["violations"][0]["racing_pairs"] == [["a", "b"]]


def test_check_global_exit_codes(capsys):
    code, report = run_cli(capsys, "check-global", "corpus:channel-grab", "--omega", "0")
    assert code == 1
    assert report["status"] == "violated"
    assert report["witnesses"][0]["latency"] == "5"
    code, report = run_cli(capsys, "check-global", "corpus:channel-grab", "--omega", "1")
    assert code == 0
    assert report["status"] == "holds"


def test_oracle_exit_codes(capsys):
    code, report = run_cli(capsys, "oracle", "corpus:branch-race")
    assert code == 1
    assert report["outcome"] == "non_monotonic"
    assert report["witness"]["latency_hi"] == "6"
    assert report["witness"]["latency_lo"] == "8"
    code, report = run_cli(capsys, "oracle", "corpus:choice-join", "--mode", "adjacent")
    assert code == 0
    assert report["outcome"] == "monotonic"
    assert report["members_checked"] == 256


def test_oracle_cap_is_undecided(capsys):
    code, report = run_cli(capsys, "oracle", "corpus:choice-join", "--cap", "3")
    assert code == 3
    assert report["outcome"] == "undecided"


def test_check_conditional(capsys):
    code, report = run_cli(capsys, "check-conditional", "corpus:branch-race")
    assert code == 0
    assert report["outcome"] == "conditionally_monotonic"
    assert report["path"] == "distinct_values"
    assert report["grid_relative"] is False
    code, report = run_cli(capsys, "check-conditional", "corpus:branch-race", "--force-brute")
    assert report["path"] == "brute_force"
    assert report["grid_relative"] is True


def test_check_conditional_all_ties_on_a_corpus_net(capsys):
    code, report = run_cli(
        capsys, "check-conditional", "corpus:channel-grab", "--tie", "all", "--force-brute"
    )
    assert code == 0
    assert report["outcome"] == "conditionally_monotonic"
    assert report["path"] == "brute_force"


def _tie_document(tmp_path):
    # a and b race for p0; at a=2 they tie, and the b resolution (done at 3)
    # beats the a=1 member (done at 11) with the same delivered value
    def transition(tid, pre, post, latency):
        return {
            "id": tid,
            "pre": [pre],
            "post": [post],
            "latency": {"kind": "const", "value": latency},
            "value_fn": {"kind": "const", "value": {"kind": "atom", "value": "out"}},
        }

    doc = {
        "format_version": 1,
        "kind": "occurrence",
        "omega_count": 1,
        "flags": {"upward_closed": True},
        "grids": {"a": ["1", "2"]},
        "places": [{"id": p} for p in ("p0", "qa", "qb", "ra", "rb")],
        "transitions": [
            transition("a", "p0", "qa", "1"),
            transition("b", "p0", "qb", "2"),
            transition("ta", "qa", "ra", "10"),
            transition("tb", "qb", "rb", "1"),
        ],
    }
    path = tmp_path / "tie.net"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_conditional_all_ties_reports_the_resolutions(capsys, tmp_path):
    path = _tie_document(tmp_path)
    code, report = run_cli(capsys, "check-conditional", path, "--force-brute")
    assert code == 0
    assert "resolution_hi" not in json.dumps(report)
    code, report = run_cli(capsys, "check-conditional", path, "--tie", "all", "--force-brute")
    assert code == 1
    w = report["witness"]
    assert (w["latency_hi"], w["latency_lo"]) == ("3", "11")
    assert w["hi"]["classes"]["a"] == "2" and w["lo"]["classes"]["a"] == "1"
    assert w["resolution_hi"] == ["b", "tb"]
    assert w["resolution_lo"] == ["a", "ta"]


@pytest.mark.parametrize("command", ["check-global", "counterexample"])
@pytest.mark.parametrize("name", ["branch-race", "channel-grab"])
def test_all_ties_report_on_check_global_and_counterexample(capsys, command, name):
    for omega in ("0", "1"):
        argv = (command, f"corpus:{name}", "--omega", omega)
        code_all, report_all = run_cli(capsys, *argv, "--tie", "all")
        assert code_all in (0, 1, 3)
        assert "error" not in report_all
        # no ties on these nets: enumerating resolutions changes nothing
        code_lex, report_lex = run_cli(capsys, *argv, "--tie", "lex")
        assert (code_all, report_all) == (code_lex, report_lex)


def test_check_global_all_ties_uses_the_slowest_resolution(capsys, tmp_path):
    _tie_document(tmp_path)
    doc = json.loads((tmp_path / "tie.net").read_text())
    latency = {"a": "2", "b": "2", "ta": "1", "tb": "10"}  # a and b tie at 2
    for t in doc["transitions"]:
        t["latency"]["value"] = latency[t["id"]]
    path = tmp_path / "tied.net"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "check-global", str(path), "--omega", "0")
    assert code == 0  # lex fires a: done at 3, the fastest maximal configuration
    assert report["occurring_latency"] == "3"
    code, report = run_cli(capsys, "check-global", str(path), "--omega", "0", "--tie", "all")
    assert code == 1  # the b resolution is done at 12
    assert report["occurring_latency"] == "12"
    assert report["witnesses"] == [{"configuration": ["a", "p0", "qa", "ra", "ta"], "latency": "3"}]


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_on_a_satisfied_net_is_monotonic(capsys):
    code, report = run_cli(capsys, "counterexample", "corpus:choice-join", "--omega", "0")
    assert code == 0
    assert report["outcome"] == "monotonic"
    assert report["structural_satisfied"]


def test_counterexample_synthesizes_and_replays(capsys):
    code, report = run_cli(capsys, "counterexample", "corpus:channel-grab", "--omega", "0")
    assert code == 1
    assert report["outcome"] == "non_monotonic"
    assert report["verification"]["accepted"]
    assert report["verification"]["latency_lo"] == "inf"

    lo = build(loads(json.dumps(report["lo"]))).pre.baseline()
    hi = build(loads(json.dumps(report["hi"]))).pre.baseline()
    verdict = verify_counterexample(lo, hi, report["omega"])
    assert verdict.accepted
    assert str(verdict.latency_hi) == report["verification"]["latency_hi"]


def test_counterexample_checks_the_carrier_structure_once(capsys, monkeypatch):
    import orchnet.monotony as monotony
    import orchnet.nets as nets
    from orchnet import unfolding

    nets_seen: list = []
    real = nets.clusters

    def counting(net, start=None):
        nets_seen.append((net, None if start is None else frozenset(start)))
        return real(net, start)

    # every binding, so that ``from .nets import clusters`` elsewhere is counted too
    for name, module in list(sys.modules.items()):
        if name == "orchnet" or name.startswith("orchnet."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    monotony.structural_check.cache_clear()
    unfolding._unfold.cache_clear()
    code, report = run_cli(capsys, "counterexample", "corpus:channel-grab", "--omega", "0")
    assert (code, report["outcome"]) == (1, "non_monotonic")
    # the carrier's clusters for the structural check, then those of the
    # unfolding's events that map into a violating carrier cluster
    built = build(loads(corpus_text("channel-grab")))
    carrier = built.carrier_net
    violating = {n for v in monotony.structural_check(built.carrier).violations for n in v.cluster}
    result = unfolding.unfold(built.carrier)
    phi = result.morphism.node_map
    assert len(nets_seen) == 2
    assert nets_seen[0] == (carrier, None)
    unf, start = nets_seen[1]
    assert unf == result.unfolding and unf != carrier
    assert start == {e for e in unf.transitions if phi[e] in violating}
    assert start < unf.transitions


def test_counterexample_witnesses_keep_a_declared_initial_value(capsys, tmp_path):
    doc = json.loads(corpus_text("channel-grab"))
    seven = {"kind": "num", "value": "7"}
    for place in doc["places"]:
        if place["id"] == "ch":
            place["initial_value"] = seven
    path = tmp_path / "valued.net"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "counterexample", str(path), "--omega", "0")
    assert code == 1
    for side in ("lo", "hi"):
        (ch,) = [p for p in report[side]["places"] if p["id"].startswith("ch~")]
        assert ch["initial_value"] == seven


@pytest.mark.parametrize(
    "name, omega, scenarios",
    [("choice-join", 9, 1), ("choice-join", -3, 1), ("channel-grab", 7, 2)],
)
def test_counterexample_rejects_an_omega_out_of_range(capsys, name, omega, scenarios):
    # as simulate and check-global do, whether or not the structure holds
    code, report = run_cli(capsys, "counterexample", f"corpus:{name}", "--omega", str(omega))
    assert code == 2
    assert report["error"] == {
        "kind": "document",
        "problems": [f"omega {omega} out of range; document declares {scenarios} scenarios"],
    }


def test_counterexample_hard_class_is_undecided(capsys):
    code, report = run_cli(capsys, "counterexample", "corpus:overlap-cluster", "--omega", "0")
    assert code == 3
    assert report["outcome"] == "undecided"
    assert report["reason"]


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "corpus:channel-grab"),
        ("unfold", "corpus:choice-join"),
        ("simulate", "corpus:overlap-cluster", "--omega", "1"),
        ("check-structural", "corpus:overlap-cluster"),
        ("check-global", "corpus:branch-race", "--omega", "1"),
        ("oracle", "corpus:branch-race"),
        ("counterexample", "corpus:branch-race", "--omega", "0"),
        ("check-conditional", "corpus:choice-join"),
    ],
)
def test_reports_are_byte_identical_across_runs(capsys, argv):
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # and valid JSON


def test_closed_stdout_exits_2_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read the report
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orchnet.cli", "simulate", "corpus:branch-race", "--omega", "0"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


def test_python_dash_m_orchnet_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "orchnet", "oracle", "corpus:branch-race"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == b""
    assert json.loads(proc.stdout)["outcome"] == "non_monotonic"


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "corpus:choice-join", "--cap", "-1"),
        ("check-global", "corpus:branch-race", "--omega", "0", "--cap", "-1"),
        ("oracle", "corpus:branch-race", "--cap", "-3"),
        ("check-conditional", "corpus:choice-join", "--force-brute", "--cap", "-2"),
    ],
)
def test_a_negative_cap_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cap: expected a non-negative integer" in captured.err


def test_a_zero_cap_is_accepted(capsys):
    code, report = run_cli(capsys, "oracle", "corpus:branch-race", "--cap", "0")
    assert code == 3
    assert report["outcome"] == "undecided"


# ---------------------------------------------------------------------------
# exit codes


def _edited_corpus(tmp_path, name, transition, post):
    doc = json.loads(corpus_text(name))
    for t in doc["transitions"]:
        if t["id"] == transition:
            t["post"] = post
    path = tmp_path / f"{name}-{transition}.net"
    path.write_text(json.dumps(doc))
    return str(path)


DOCUMENTS = {
    "tie": _tie_document,
    "two-producers": lambda tmp_path: _edited_corpus(tmp_path, "branch-race", "b", ["p1"]),
    "stuck": lambda tmp_path: _edited_corpus(tmp_path, "choice-join", "b", ["o"]),
}


@pytest.mark.parametrize(
    "argv, key, word, code",
    [
        ("validate corpus:branch-race", "status", "valid", 0),
        ("validate two-producers", "status", "invalid-net", 1),
        ("validate stuck", "status", "unsound", 1),
        ("validate corpus:choice-join --cap 2", "status", "undecided", 3),
        ("check-structural corpus:choice-join", "satisfied", True, 0),
        ("check-structural corpus:branch-race", "satisfied", False, 1),
        ("check-global corpus:channel-grab --omega 1", "status", "holds", 0),
        ("check-global corpus:channel-grab --omega 0", "status", "violated", 1),
        ("check-global corpus:channel-grab --omega 0 --cap 0", "status", "undecided", 3),
        ("oracle corpus:choice-join --mode adjacent", "outcome", "monotonic", 0),
        ("oracle corpus:branch-race", "outcome", "non_monotonic", 1),
        ("oracle corpus:branch-race --cap 0", "outcome", "undecided", 3),
        ("check-conditional corpus:branch-race", "outcome", "conditionally_monotonic", 0),
        ("check-conditional tie --tie all --force-brute", "outcome", "non_monotonic", 1),
        ("check-conditional corpus:branch-race --force-brute --cap 0", "outcome", "undecided", 3),
        ("counterexample corpus:choice-join --omega 0", "outcome", "monotonic", 0),
        ("counterexample corpus:branch-race --omega 0", "outcome", "non_monotonic", 1),
        ("counterexample corpus:overlap-cluster --omega 0", "outcome", "undecided", 3),
        ("simulate corpus:branch-race --omega 0", "command", "simulate", 0),
        ("unfold corpus:choice-join", "command", "unfold", 0),
    ],
)
def test_every_outcome_maps_to_its_exit_code(capsys, tmp_path, argv, key, word, code):
    # 0 holds, 1 violated, 3 undecided, as the README promises
    command, file, *options = argv.split()
    if file in DOCUMENTS:
        file = DOCUMENTS[file](tmp_path)
    got, report = run_cli(capsys, command, file, *options)
    assert (got, report[key]) == (code, word)
