"""Byte-exact command outputs, recorded once and compared on every run.

The verify, betti, complex and conjecture commands must keep their JSON
output and their fuzz-log records (timestamp removed) unchanged when the
code behind them is restructured.  After a change that is meant to alter
the output, rewrite the recording with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from monores.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

IDEALS = {
    "example": "vars: 4\nx1^2\nx2^2\nx3^2\nx1*x3\nx2*x4\n",
    "squarefree": "vars: 6\nx1*x4\nx2*x5\nx3*x6\nx1*x2*x3\n",
    # random --vars 4 --gens 7 --maxdeg 9 --mode strongly-generic --seed 1
    "strongly-generic-7": (
        "vars: 4\nx2^6*x3^8*x4^5\nx1*x2^5*x4^9\nx1^2*x2^8*x3^3*x4^6\n"
        "x1^4*x2*x3^4*x4^2\nx1^5*x3^9*x4^4\nx1^7*x2^9*x3^6\nx1^9*x2^7*x3^2*x4^3\n"
    ),
    # random --vars 5 --gens 14 --maxdeg 3 --seed 4: Betti totals (7, 15, 14, 6, 1),
    # so some open intervals have homology and their cores are not a point
    "arbitrary-5-vars": (
        "vars: 5\nx4^3*x5^2\nx2^2*x4^2*x5^2\nx1*x5^3\nx1*x3^2*x4\n"
        "x1^2*x3*x4^2*x5^2\nx1^2*x2^2*x3*x4*x5^2\nx1^3*x2^2*x3*x4\n"
    ),
}

CONJECTURE = {
    "conjecture-arbitrary": [
        "conjecture", "--vars", "4", "--gens", "7", "--maxdeg", "4",
        "--trials", "6", "--seed", "5", "--format", "json",
    ],
    "conjecture-strongly-generic": [
        "conjecture", "--vars", "3", "--gens", "5", "--maxdeg", "8",
        "--mode", "strongly-generic", "--trials", "4", "--seed", "2",
        "--fields", "0,3",
    ],
    # benchmark seed 32, round 20: the second trial's clique complex has
    # reduced H_2 of rank 1, so the run exits 1 through the re-verify path
    "conjecture-candidate": [
        "conjecture", "--vars", "5", "--gens", "30", "--maxdeg", "6",
        "--trials", "2", "--seed", "7793247015739397264", "--format", "json",
    ],
}


def cases() -> dict:
    out = {}
    for name, text in IDEALS.items():
        out[f"verify-{name}"] = ["verify", "--inline", text, "--fields", "0,2", "--format", "json"]
        for method in ("interval", "agreement", "faces"):
            out[f"betti-{method}-{name}"] = [
                "betti", "--inline", text, "--method", method, "--format", "json",
            ]
        for kind in ("bu", "scarf", "taylor", "clique"):
            out[f"complex-{kind}-{name}"] = [
                "complex", "--inline", text, "--kind", kind, "--format", "json",
            ]
    out.update(CONJECTURE)
    return out


def run_case(argv) -> dict:
    """Exit code, stdout and, for conjecture runs, the log without timestamps."""
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "fuzz.jsonl")
        if argv[0] == "conjecture":
            argv = [*argv, "--log", log]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        records = []
        if os.path.exists(log):
            with open(log, encoding="utf-8") as handle:
                for line in handle:
                    data = json.loads(line)
                    data.pop("timestamp")
                    records.append(json.dumps(data, sort_keys=True))
    return {"exit": code, "stdout": stdout.getvalue(), "log": records}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recording_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_is_unchanged(golden, name):
    assert run_case(cases()[name]) == golden[name]


if __name__ == "__main__":
    recorded = {name: run_case(argv) for name, argv in cases().items()}
    GOLDEN.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
