"""Byte-identical CLI output: exit code and stdout digest per command.

``cli_golden.json`` maps each command line (fixture paths relative to the
repository root) to its exit code and the sha256 of its stdout.  To record
it again after a deliberate output change, run this file as a script:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cofib.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

PCS_FIXTURES = {
    "broken-closure": 2,
    "circle": 1,
    "closed-square": 2,
    "interval": 1,
    "lone-vertex": 1,
    "one-square": 2,
    "open-square": 2,
    "y-graph": 1,
}
AUT_FIXTURES = ["headless-edge", "loop-a", "loop-ab", "path-ab", "relational-mess", "two-start"]


def cases() -> list[list[str]]:
    out = []
    for name, n in PCS_FIXTURES.items():
        path = f"fixtures/{name}.json"
        out += [
            ["pcs", "validate", path],
            ["pcs", "blowup", "-n", str(n), path],
            ["pcs", "blowup", "-n", str(n), "--provenance", path],
            ["pcs", "euclid", "-n", str(n), path],
            ["pcs", "verify", "-n", str(n), path],
            ["pcs", "export", "--format", "dot", path],
            ["pcs", "export", "--format", "tikz", path],
        ]
        if n == 1:
            out.append(["pcs", "verify", "-n", "2", path])
    for eps in ["0", "1", "00", "01", "10", "11", "101"]:
        out.append(["pcs", "brick", "-e", eps])
    for name in AUT_FIXTURES:
        path = f"fixtures/{name}.json"
        out += [
            ["aut", "lang", "-L", "4", path],
            ["aut", "cofrep", path],
            ["aut", "normalize", path],
            ["aut", "conditions", path],
            ["aut", "verify", path],
        ]
    out += [
        ["rx", "compile", "a*b*", "-L", "3"],
        ["rx", "compile", "(a|b)*abb", "--alphabet", "abc", "-L", "4"],
        ["rx", "compile", "--ascii", "()|0", "-L", "2"],
        ["rx", "compile", "a(b|c)*"],
        ["rx", "fuzz", "--seed", "7", "--count", "25", "--depth", "3", "-L", "6"],
        ["toolkit", "appendix"],
    ]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    resolved = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_is_byte_identical(argv):
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    code, digest = run(argv)
    assert {"exit": code, "stdout_sha256": digest} == expected


def test_golden_covers_exactly_the_cases():
    assert set(json.loads(GOLDEN.read_text())) == {" ".join(a) for a in cases()}


if __name__ == "__main__":
    golden = {}
    for argv in cases():
        code, digest = run(argv)
        golden[" ".join(argv)] = {"exit": code, "stdout_sha256": digest}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
