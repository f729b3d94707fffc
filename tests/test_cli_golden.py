"""Byte-exact stdout and exit codes of a fixed set of CLI invocations.

The expected outputs in ``cli_golden.json`` were recorded from the CLI; any
change to a payload, its key order, a printed value or an exit code fails
here. After a deliberate output change, record them again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tough2f.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

INPUTS = {
    # K4 (tau inf), K3 + K2 (tau 0), Petersen (tau 4/3)
    "small.g6": ["C~", "DwC", "IheA@GUAo"],
    # H(1), H(2)
    "h.g6": ["Fsqkw", "K}rEFBPq]Jw^"],
    # the above, C5, C6 and a malformed line
    "corpus.g6": ["C~", "DwC", "IheA@GUAo", "Fsqkw", "K}rEFBPq]Jw^",
                  "Dhc", "EhEG", "not-graph6"],
}

CASES = {
    "invariants": ["invariants", "small.g6"],
    "two-factor": ["two-factor", "h.g6"],
    "barrier-biased": ["barrier", "h.g6", "--biased"],
    "witness": ["witness", "h.g6"],
    "family-H": ["family", "H:n=2", "--verify"],
    "family-R": ["family", "R:m=1,a=2,b=1,c=3", "--verify"],
    "family-G": ["family", "G:n=1,k=1", "--verify"],
    "hunt-THM1i-t": ["hunt", "corpus.g6", "--theorem", "THM1i",
                     "--t", "3/2"],
    "hunt-THM1ii-t-spaced": ["hunt", "corpus.g6", "--theorem", "THM1ii",
                             "--t", " 3 / 2"],
    "hunt-THM2-eps": ["hunt", "corpus.g6", "--theorem", "THM2",
                      "--eps", "1/2"],
    "hunt-FALSE1T": ["hunt", "corpus.g6", "--theorem", "FALSE1T"],
    "hunt-eps-inf": ["hunt", "corpus.g6", "--theorem", "THM2",
                     "--eps", "inf"],
    "hunt-eps-decimal": ["hunt", "corpus.g6", "--theorem", "THM2",
                         "--eps", "1.5"],
    "hunt-eps-negative": ["hunt", "corpus.g6", "--theorem", "THM2",
                          "--eps", "3/-2"],
}


def write_inputs(directory: Path) -> None:
    for name, lines in INPUTS.items():
        (directory / name).write_text("\n".join(lines) + "\n")


def run_case(directory: Path, argv: list) -> dict:
    argv = [str(directory / a) if a in INPUTS else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, golden, tmp_path, capsys):
    write_inputs(tmp_path)
    got = run_case(tmp_path, CASES[case])
    capsys.readouterr()  # drop the error lines printed to stderr
    assert got == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        recorded = {case: run_case(Path(tmp), argv)
                    for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
