"""Golden CLI reports: every subcommand on the corpus nets, byte for byte.

Each case runs ``orchnet.cli.main`` in-process and compares its stdout
bytes with ``tests/golden/<case>.json`` and its exit code with
``tests/golden/exit_codes.json``.  Regenerate the files after an
intended report change with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
CORPUS = {"branch-race": 2, "channel-grab": 2, "choice-join": 1, "overlap-cluster": 2}


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for name, omegas in CORPUS.items():
        ref = f"corpus:{name}"
        cases += [("validate", ref), ("unfold", ref), ("check-structural", ref)]
        for tie in ("lex", "all"):
            for omega in range(omegas):
                for cmd in ("simulate", "check-global", "counterexample"):
                    cases.append((cmd, ref, "--omega", str(omega), "--tie", tie))
            cases.append(("oracle", ref, "--mode", "all_pairs", "--tie", tie))
            cases.append(("check-conditional", ref, "--tie", tie))
            cases.append(("check-conditional", ref, "--tie", tie, "--force-brute"))
        cases.append(("oracle", ref, "--mode", "adjacent", "--tie", "lex"))
    return cases


def _case_id(argv: tuple[str, ...]) -> str:
    return "_".join(a.replace("corpus:", "").lstrip("-") for a in argv)


def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    from orchnet.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", _cases(), ids=_case_id)
def test_golden_report(argv):
    case = _case_id(argv)
    code, out = _run(argv)
    assert code == _exit_codes()[case]
    assert out == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


def _write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for argv in _cases():
        case = _case_id(argv)
        codes[case], out = _run(argv)
        (GOLDEN / f"{case}.json").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
